package core

import (
	"sync"
	"testing"
	"unsafe"

	"privstm/internal/failpoint"
	"privstm/internal/heap"
)

// The tracker tests run as subtests named after the slot tracker they check.
func TestTrackerSemantics(t *testing.T) {
	t.Run("slot", func(t *testing.T) {
		rt := newTestRT(t, 8)
		tr := rt.Active
		if _, any := tr.OldestBegin(); any {
			t.Fatal("empty tracker reports an entry")
		}
		a, _ := rt.NewThread()
		b, _ := rt.NewThread()
		tsA := tr.Enter(a)
		rt.Clock.Tick()
		tsB := tr.Enter(b)
		if tsB < tsA {
			t.Fatalf("timestamps regressed: %d then %d", tsA, tsB)
		}
		if got, any := tr.OldestBegin(); !any || got > tsA {
			t.Errorf("OldestBegin = %d,%v want ≤ %d", got, any, tsA)
		}
		if got, any := tr.OldestOtherBegin(a); !any || got != tsB {
			t.Errorf("OldestOtherBegin(a) = %d,%v want %d", got, any, tsB)
		}
		if got, any := tr.OldestOtherBegin(b); !any || got > tsA {
			t.Errorf("OldestOtherBegin(b) = %d,%v want ≤ %d", got, any, tsA)
		}
		if tr.Count() != 2 {
			t.Errorf("Count = %d", tr.Count())
		}
		tr.Leave(a)
		if got, any := tr.OldestBegin(); !any || got != tsB {
			t.Errorf("after Leave(a): oldest = %d,%v want %d", got, any, tsB)
		}
		if _, any := tr.OldestOtherBegin(b); any {
			t.Error("b alone should see no other")
		}
		tr.Leave(b)
		if _, any := tr.OldestBegin(); any {
			t.Error("tracker not empty after all left")
		}
	})
}

func TestTrackerLateJoiner(t *testing.T) {
	t.Run("slot", func(t *testing.T) {
		rt := newTestRT(t, 8)
		tr := rt.Active
		young, _ := rt.NewThread()
		rt.Clock.AdvanceTo(100)
		tr.Enter(young)
		elder, _ := rt.NewThread()
		tr.EnterAt(elder, 5) // late joiner with an old timestamp
		if got, any := tr.OldestBegin(); !any || got > 5 {
			t.Errorf("oldest = %d,%v want ≤ 5", got, any)
		}
		tr.Leave(elder)
		tr.Leave(young)
	})
}

// TestTrackerLowerBoundUnderChurn verifies the fence-safety property: while
// a resident transaction is registered, OldestBegin never exceeds its begin
// timestamp.
func TestTrackerLowerBoundUnderChurn(t *testing.T) {
	t.Run("slot", func(t *testing.T) {
		rt := newTestRT(t, 8)
		tr := rt.Active
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			th, err := rt.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(th *Thread) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					rt.Clock.Tick()
					tr.Enter(th)
					tr.Leave(th)
				}
			}(th)
		}
		resident, _ := rt.NewThread()
		myTS := tr.Enter(resident)
		for i := 0; i < 100000; i++ {
			if ts, any := tr.OldestBegin(); !any || ts > myTS {
				t.Fatalf("oldest = %d,%v but resident began at %d", ts, any, myTS)
			}
		}
		close(stop)
		wg.Wait()
		tr.Leave(resident)
	})
}

// TestTrackerYieldPoints checks that every tracker registration transition
// fires its failpoint once: the schedule explorer orders workers against
// tracker entry and exit only through these yields. A pvrBase writer enters
// at Begin and leaves at commit; a pvrWriterOnly transaction joins late, at
// its first write; a weak read pins an invisible transaction at its begin
// timestamp, also as a late joiner.
func TestTrackerYieldPoints(t *testing.T) {
	points := []string{failpoint.TrackerEnter, failpoint.TrackerEnterAt, failpoint.TrackerLeave}
	for _, c := range []struct {
		name string
		e    *Policy
		body func(th *Thread, a heap.Addr)
		want [3]uint64 // Enter, EnterAt, Leave
	}{
		{"pvrBase writer", &PVRBase, func(th *Thread, a heap.Addr) { PVRBase.Write(th, a, 1) }, [3]uint64{1, 0, 1}},
		{"pvrWriterOnly first write", &PVRWriterOnly, func(th *Thread, a heap.Addr) { PVRWriterOnly.Write(th, a, 1) }, [3]uint64{0, 1, 1}},
		{"ReadWeak epoch pin", &TL2, func(th *Thread, a heap.Addr) { th.ReadWeak(a) }, [3]uint64{0, 1, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := newEngineRT(t)
			th := newEngineThread(t, rt)
			a := rt.Heap.MustAlloc(1)
			t.Cleanup(failpoint.Reset)
			for _, p := range points {
				failpoint.Set(p, nil)
			}
			if err := Run(c.e, th, func() { c.body(th, a) }); err != nil {
				t.Fatal(err)
			}
			for i, p := range points {
				if got := failpoint.Hits(p); got != c.want[i] {
					t.Errorf("%s fired %d times, want %d", p, got, c.want[i])
				}
			}
		})
	}
}

// TestThreadLayout pins Thread's field offsets. The set_write benchmark's
// two-worker loop is bimodal, and shifting BeginTS..Sem by 32 bytes tips it
// into the slow mode (core.fenced_pct 5 → 24 %, ops_per_s −22 % in 7 of 7
// paired runs, even with no change in behaviour; EXPERIMENTS.md "One
// tracker"). The offsets are those Thread had with the central list's node
// before BeginTS, which layoutPad now holds. A change that moves any of them
// must re-measure set_write and update this table.
func TestThreadLayout(t *testing.T) {
	var th Thread
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"BeginTS", unsafe.Offsetof(th.BeginTS), 56},
		{"ValidTS", unsafe.Offsetof(th.ValidTS), 64},
		{"ExtendOK", unsafe.Offsetof(th.ExtendOK), 72},
		{"Reads", unsafe.Offsetof(th.Reads), 80},
		{"Undo", unsafe.Offsetof(th.Undo), 104},
		{"Redo", unsafe.Offsetof(th.Redo), 128},
		{"Acq", unsafe.Offsetof(th.Acq), 184},
		{"Sem", unsafe.Offsetof(th.Sem), 208},
		{"pub", unsafe.Offsetof(th.pub), 800},
		{"pubSeq", unsafe.Offsetof(th.pubSeq), 808},
		{"lastValidated", unsafe.Offsetof(th.lastValidated), 816},
	} {
		if f.got != f.want {
			t.Errorf("Thread.%s at offset %d, want %d", f.name, f.got, f.want)
		}
	}
}
