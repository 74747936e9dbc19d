package core

import (
	"sync"
	"testing"
)

func trackers(t *testing.T) map[string]func(*Runtime) ActiveTracker {
	t.Helper()
	return map[string]func(*Runtime) ActiveTracker{
		"list": func(rt *Runtime) ActiveTracker { return NewListTracker(rt) },
		"slot": func(rt *Runtime) ActiveTracker { return NewSlotTracker(rt) },
	}
}

func TestTrackerSemantics(t *testing.T) {
	for name, mk := range trackers(t) {
		t.Run(name, func(t *testing.T) {
			rt := newTestRT(t, 8)
			tr := mk(rt)
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
}

func TestTrackerLateJoiner(t *testing.T) {
	for name, mk := range trackers(t) {
		t.Run(name, func(t *testing.T) {
			rt := newTestRT(t, 8)
			tr := mk(rt)
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
}

// TestTrackerLowerBoundUnderChurn verifies the fence-safety property for
// every implementation: while a resident transaction is registered,
// OldestBegin never exceeds its begin timestamp.
func TestTrackerLowerBoundUnderChurn(t *testing.T) {
	for name, mk := range trackers(t) {
		t.Run(name, func(t *testing.T) {
			rt := newTestRT(t, 8)
			tr := mk(rt)
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
}

func TestRuntimeSelectsTracker(t *testing.T) {
	// NewRuntime wraps every tracker in the yield-point decorator;
	// UnwrapTracker exposes the selected concrete kind.
	rt, err := NewRuntime(Options{HeapWords: 64, OrecCount: 16, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rt.Active.(yieldTracker); !ok {
		t.Errorf("runtime tracker not yield-decorated: %T", rt.Active)
	}
	if _, ok := UnwrapTracker(rt.Active).(*SlotTracker); !ok {
		t.Errorf("default tracker should be the slot array: %T", UnwrapTracker(rt.Active))
	}
	rt2, _ := NewRuntime(Options{HeapWords: 64, OrecCount: 16, MaxThreads: 2, Tracker: TrackerList})
	if _, ok := UnwrapTracker(rt2.Active).(*ListTracker); !ok {
		t.Errorf("TrackerList option ignored: %T", UnwrapTracker(rt2.Active))
	}
}
