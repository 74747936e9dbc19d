package core

import (
	"testing"

	"privstm/internal/orec"
)

// staleVis makes o's vis word look like an ancient foreign hint (rts 0),
// so the next MakeVisible by a transaction with BeginTS > 0 takes the
// slow path. This is how re-publication pressure appears in the wild:
// another reader's full update, or §III-B store-protocol staleness,
// leaves a hint that no longer covers us.
func staleVis(o *orec.Orec) { o.Vis().Store(0) }

// TestLostHintIsRepublished: a live visible transaction whose hint on o no
// longer covers it must republish on its next MakeVisible(o). Writers fence
// only for transactions that began at or before the rts they find, so a
// reader that skipped here because it had covered o earlier in the same
// transaction would stay uncovered for the rest of its life.
func TestLostHintIsRepublished(t *testing.T) {
	for _, proto := range []VisProto{VisCAS, VisStore} {
		rt := newTestRT(t, 4)
		rt.Clock.Tick() // BeginTS > 0, so a zeroed vis word is not covering
		th := newActiveThread(t, rt)
		o := rt.Orecs.At(7)

		th.MakeVisible(o, false, proto)
		if th.Stats.PVUpdates != 1 {
			t.Fatalf("proto %v: first read: updates=%d, want 1", proto, th.Stats.PVUpdates)
		}
		staleVis(o)
		th.MakeVisible(o, false, proto)
		if th.Stats.PVUpdates != 2 {
			t.Errorf("proto %v: re-read of a lost hint: updates=%d, want 2 (republished)", proto, th.Stats.PVUpdates)
		}
		rts, tid, _ := orec.UnpackVis(o.Vis().Load())
		if rts < th.BeginTS || tid != th.ID {
			t.Errorf("proto %v: vis after re-read = (rts %d, tid %d), want rts ≥ %d by thread %d",
				proto, rts, tid, th.BeginTS, th.ID)
		}
		if err := th.CheckCoverage(); err != nil {
			t.Errorf("proto %v: %v", proto, err)
		}
		finish(rt, th)
	}
}

// TestCheckCoverageFlagsLoweredHint: the explorer's coverage oracle passes
// while every hint the live transaction published still covers it, fails
// once one is lowered below its begin time, and ignores a finished
// transaction.
func TestCheckCoverageFlagsLoweredHint(t *testing.T) {
	rt := newTestRT(t, 4)
	rt.Clock.Tick()
	th := newActiveThread(t, rt)
	o := rt.Orecs.At(7)
	th.MakeVisible(o, false, VisStore)
	if err := th.CheckCoverage(); err != nil {
		t.Fatalf("covered transaction flagged: %v", err)
	}
	staleVis(o)
	if err := th.CheckCoverage(); err == nil {
		t.Error("a hint lowered below BeginTS passed the coverage oracle")
	}
	finish(rt, th)
	if err := th.CheckCoverage(); err != nil {
		t.Errorf("finished transaction flagged: %v", err)
	}
}

// TestMakeVisibleAllocFree pins the whole reader-side visibility path at
// zero heap allocations in steady state, for both protocols and all three
// hot cases: the covered re-read, the stale re-read that republishes within
// the transaction, and the full publication of a fresh transaction.
func TestMakeVisibleAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto VisProto
	}{{"CAS", VisCAS}, {"Store", VisStore}} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newTestRT(t, 4)
			rt.Clock.Tick()
			th := newActiveThread(t, rt)
			o := rt.Orecs.At(7)

			th.MakeVisible(o, false, tc.proto) // warm up logs
			if n := testing.AllocsPerRun(200, func() {
				th.MakeVisible(o, false, tc.proto)
			}); n != 0 {
				t.Errorf("covered MakeVisible allocates %.1f per call", n)
			}

			if n := testing.AllocsPerRun(200, func() {
				staleVis(o)
				th.MakeVisible(o, false, tc.proto)
			}); n != 0 {
				t.Errorf("stale re-read republishing allocates %.1f per call", n)
			}

			// Publication path: reset per run so the covered test cannot
			// short-circuit the full update.
			if n := testing.AllocsPerRun(200, func() {
				staleVis(o)
				th.ResetTxnState()
				th.StartSnapshot(th.BeginTS)
				th.MakeVisible(o, false, tc.proto)
			}); n != 0 {
				t.Errorf("publishing MakeVisible allocates %.1f per call", n)
			}
			finish(rt, th)
		})
	}
}
