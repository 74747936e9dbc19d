package core

import (
	"testing"

	"privstm/internal/orec"
)

// staleVis makes o's vis word look like an ancient foreign hint (rts 0),
// so the next MakeVisible by a transaction with BeginTS > 0 takes the
// slow path. This is how re-publication pressure appears in the wild:
// another reader's full update leaves a hint that no longer covers us.
func staleVis(o *orec.Orec) { o.Vis().Store(0) }

// TestLostHintIsRepublished: a live visible transaction whose hint on o no
// longer covers it must republish on its next MakeVisible(o). Writers fence
// only for transactions that began at or before the rts they find, so a
// reader that skipped here because it had covered o earlier in the same
// transaction would stay uncovered for the rest of its life.
func TestLostHintIsRepublished(t *testing.T) {
	rt := newTestRT(t, 4)
	rt.Clock.Tick() // BeginTS > 0, so a zeroed vis word is not covering
	th := newActiveThread(t, rt)
	o := rt.Orecs.At(7)

	th.MakeVisible(o, false)
	if th.Stats.PVUpdates != 1 {
		t.Fatalf("first read: updates=%d, want 1", th.Stats.PVUpdates)
	}
	staleVis(o)
	th.MakeVisible(o, false)
	if th.Stats.PVUpdates != 2 {
		t.Errorf("re-read of a lost hint: updates=%d, want 2 (republished)", th.Stats.PVUpdates)
	}
	rts, tid, _ := orec.UnpackVis(o.Vis().Load())
	if rts < th.BeginTS || tid != th.ID {
		t.Errorf("vis after re-read = (rts %d, tid %d), want rts ≥ %d by thread %d",
			rts, tid, th.BeginTS, th.ID)
	}
	if err := th.CheckCoverage(); err != nil {
		t.Error(err)
	}
	finish(rt, th)
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
	th.MakeVisible(o, false)
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
// zero heap allocations in steady state, in all three hot cases: the
// covered re-read, the stale re-read that republishes within the
// transaction, and the full publication of a fresh transaction.
func TestMakeVisibleAllocFree(t *testing.T) {
	rt := newTestRT(t, 4)
	rt.Clock.Tick()
	th := newActiveThread(t, rt)
	o := rt.Orecs.At(7)

	th.MakeVisible(o, false) // warm up logs
	if n := testing.AllocsPerRun(200, func() {
		th.MakeVisible(o, false)
	}); n != 0 {
		t.Errorf("covered MakeVisible allocates %.1f per call", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		staleVis(o)
		th.MakeVisible(o, false)
	}); n != 0 {
		t.Errorf("stale re-read republishing allocates %.1f per call", n)
	}

	// Publication path: reset per run so the covered test cannot
	// short-circuit the full update.
	if n := testing.AllocsPerRun(200, func() {
		staleVis(o)
		th.ResetTxnState()
		th.StartSnapshot(th.BeginTS)
		th.MakeVisible(o, false)
	}); n != 0 {
		t.Errorf("publishing MakeVisible allocates %.1f per call", n)
	}
	finish(rt, th)
}
