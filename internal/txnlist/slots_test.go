package txnlist

import (
	"sync"
	"sync/atomic"
	"testing"

	"privstm/internal/clock"
)

func TestSlotsEmpty(t *testing.T) {
	s := NewSlots(4)
	if _, ok := s.OldestBegin(); ok {
		t.Error("empty tracker reported an oldest entry")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Cap() != 4 {
		t.Errorf("Cap = %d", s.Cap())
	}
	if s.CachedHolder() != -1 {
		t.Errorf("CachedHolder = %d on empty tracker", s.CachedHolder())
	}
}

func TestSlotsBounds(t *testing.T) {
	for _, n := range []int{0, -1, MaxSlots + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSlots(%d) did not panic", n)
				}
			}()
			NewSlots(n)
		}()
	}
	NewSlots(1)
}

func TestSlotsEnterLeaveOldest(t *testing.T) {
	s := NewSlots(8)
	var c clock.Clock
	c.Tick()
	ts0 := s.Enter(0, &c)
	c.Tick()
	ts1 := s.Enter(1, &c)
	if ts1 <= ts0 {
		t.Fatalf("timestamps not increasing: %d then %d", ts0, ts1)
	}
	if got, ok := s.OldestBegin(); !ok || got != ts0 {
		t.Fatalf("OldestBegin = %d,%v want %d,true", got, ok, ts0)
	}
	// Second query must hit the cache and agree.
	if got, ok := s.OldestBegin(); !ok || got != ts0 {
		t.Fatalf("cached OldestBegin = %d,%v want %d,true", got, ok, ts0)
	}
	if s.CachedHolder() != 0 {
		t.Errorf("CachedHolder = %d, want 0", s.CachedHolder())
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	// Cached holder exits: the lazy recompute must advance to slot 1.
	s.Leave(0)
	if got, ok := s.OldestBegin(); !ok || got != ts1 {
		t.Fatalf("after holder exit OldestBegin = %d,%v want %d,true", got, ok, ts1)
	}
	if s.CachedHolder() != 1 {
		t.Errorf("CachedHolder = %d, want 1", s.CachedHolder())
	}
	s.Leave(1)
	if _, ok := s.OldestBegin(); ok {
		t.Error("tracker should be empty")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after all left", s.Len())
	}
}

func TestSlotsOldestOtherBegin(t *testing.T) {
	s := NewSlots(4)
	var c clock.Clock
	c.Tick()
	s.Enter(0, &c)
	if _, ok := s.OldestOtherBegin(0); ok {
		t.Error("sole entry should see no other")
	}
	c.Tick()
	s.Enter(1, &c)
	if got, ok := s.OldestOtherBegin(0); !ok || got != 2 {
		t.Errorf("OldestOtherBegin(0) = %d,%v want 2,true", got, ok)
	}
	if got, ok := s.OldestOtherBegin(1); !ok || got != 1 {
		t.Errorf("OldestOtherBegin(1) = %d,%v want 1,true", got, ok)
	}
	// Seed the cache with the global minimum (slot 0), then check the
	// excluding query still never exceeds the survivor's begin.
	s.OldestBegin()
	if got, ok := s.OldestOtherBegin(0); !ok || got != 2 {
		t.Errorf("cached OldestOtherBegin(0) = %d,%v want 2,true", got, ok)
	}
	s.Leave(0)
	s.Leave(1)
}

func TestSlotsEnterAtLowersWatermark(t *testing.T) {
	s := NewSlots(8)
	var c clock.Clock
	c.AdvanceTo(100)
	s.Enter(0, &c) // ts 100
	if got, _ := s.OldestBegin(); got != 100 {
		t.Fatalf("oldest = %d, want 100", got)
	}
	// A late joiner with an older timestamp must be reflected immediately
	// after EnterAt returns — this is the fence's lower-bound requirement.
	s.EnterAt(1, 50)
	if got, ok := s.OldestBegin(); !ok || got != 50 {
		t.Fatalf("after EnterAt oldest = %d,%v want 50,true", got, ok)
	}
	// A late joiner that is *not* older must leave the watermark alone.
	s.EnterAt(2, 70)
	if got, _ := s.OldestBegin(); got != 50 {
		t.Errorf("oldest = %d, want 50", got)
	}
	s.Leave(1)
	if got, _ := s.OldestBegin(); got != 70 {
		t.Errorf("after joiner left, oldest = %d, want 70", got)
	}
	s.Leave(2)
	if got, _ := s.OldestBegin(); got != 100 {
		t.Errorf("oldest = %d, want 100", got)
	}
	s.Leave(0)
}

func TestSlotsReenterInvalidatesCache(t *testing.T) {
	s := NewSlots(4)
	var c clock.Clock
	c.AdvanceTo(10)
	s.Enter(0, &c)
	c.AdvanceTo(20)
	s.Enter(1, &c)
	s.OldestBegin() // cache slot 0 @ 10
	// Slot 0 finishes and immediately re-enters at a later time: the cached
	// (holder, ts) pair no longer matches the slot, so the fast path must
	// reject it and the recompute must return the new minimum.
	s.Leave(0)
	c.AdvanceTo(30)
	s.Enter(0, &c)
	if got, ok := s.OldestBegin(); !ok || got != 20 {
		t.Errorf("OldestBegin = %d,%v want 20,true (slot 1)", got, ok)
	}
	s.Leave(0)
	s.Leave(1)
}

// TestSlotsConcurrentStress races Enter/Leave/EnterAt against the oldest
// queries and Len under -race, checking the lower-bound property from each
// worker's own perspective at every step.
func TestSlotsConcurrentStress(t *testing.T) {
	const workers = 8
	const iters = 3000
	s := NewSlots(workers)
	var c clock.Clock
	c.Tick()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var my uint64
				if i%7 == 3 {
					// Late joiner: recorded timestamp predates registration.
					my = c.Now()
					c.Tick()
					s.EnterAt(id, my)
				} else {
					c.Tick()
					my = s.Enter(id, &c)
				}
				if ts, ok := s.OldestBegin(); ok && ts > my {
					t.Errorf("oldest %d exceeds my begin %d while registered", ts, my)
				}
				if ts, ok := s.OldestOtherBegin(id); ok && ts > my+uint64(iters) {
					_ = ts // excluding-self may exceed my begin; just exercise it
				}
				_ = s.Len()
				s.Leave(id)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Errorf("Len = %d after all left", s.Len())
	}
}

// TestSlotsOldestIsLowerBound mirrors the central list's safety test: while
// a long-lived resident is registered, no query may return a timestamp past
// its begin — regardless of churn and late joiners on other slots.
func TestSlotsOldestIsLowerBound(t *testing.T) {
	const churners = 4
	s := NewSlots(churners + 1)
	var c clock.Clock
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%5 == 4 {
					s.EnterAt(id, c.Now())
				} else {
					c.Tick()
					s.Enter(id, &c)
				}
				s.Leave(id)
			}
		}(w)
	}
	resident := churners
	c.Tick()
	myTS := s.Enter(resident, &c)
	for i := 0; i < 200000; i++ {
		if ts, ok := s.OldestBegin(); !ok || ts > myTS {
			t.Fatalf("OldestBegin = %d,%v but resident began at %d", ts, ok, myTS)
		}
	}
	close(stop)
	wg.Wait()
	s.Leave(resident)
}

// TestSlotsEnterAtEmptyCacheKeepsOlderEntrant: a late joiner must not seed
// a never-computed (empty) cache with its own timestamp — an older
// fresh-Enter transaction may be live that no scan has cached yet, and a
// valid-looking watermark above its begin would release fences early. The
// joiner must leave the cache empty and let the next query scan.
func TestSlotsEnterAtEmptyCacheKeepsOlderEntrant(t *testing.T) {
	s := NewSlots(4)
	var c clock.Clock
	c.AdvanceTo(10)
	s.Enter(0, &c) // live at 10; no query yet, so the cache is still empty
	s.EnterAt(1, 50)
	if got, ok := s.OldestBegin(); !ok || got != 10 {
		t.Fatalf("OldestBegin = %d,%v want 10,true (older entrant)", got, ok)
	}
	s.Leave(0)
	s.Leave(1)
}

// TestSlotsEnterAtVsRecomputeRace targets the interleaving where a
// recompute's scan passes a joiner's slot before the joiner stores it, the
// joiner then registers via EnterAt and finds the (pre-publish) cache
// already at or below its timestamp, and the scan publishes a minimum
// computed without the joiner. The published watermark would then exceed
// the live joiner's begin — exactly what privatizationFence must never
// observe. The shape maximizes the scan window: the joiner sits in slot 0
// (visited first, so the scan has the whole remaining array still to walk),
// a long-lived resident in the last slot keeps the scans long and supplies
// a high minimum (1000), and a churner in slot 1 alternately installs a low
// watermark (500 ≤ the joiner's 700, triggering EnterAt's covered case) and
// leaves (forcing the pollers to recompute).
func TestSlotsEnterAtVsRecomputeRace(t *testing.T) {
	const (
		slots      = 256
		joinerTS   = 700
		churnTS    = 500
		residentTS = 1000
		iters      = 20000
	)
	s := NewSlots(slots)
	var c clock.Clock
	c.AdvanceTo(residentTS)
	s.Enter(slots-1, &c) // raises hi so every scan walks the full array
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // churner: plant a low watermark, then vacate it
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.EnterAt(1, churnTS)
			s.Leave(1)
		}
	}()
	go func() { // poller: recomputes whenever the churner's watermark goes stale
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.OldestBegin()
		}
	}()
	for i := 0; i < iters; i++ {
		s.EnterAt(0, joinerTS)
		if ts, ok := s.OldestBegin(); !ok || ts > joinerTS {
			t.Fatalf("iter %d: OldestBegin = %d,%v but joiner live at %d", i, ts, ok, joinerTS)
		}
		s.Leave(0)
	}
	close(stop)
	wg.Wait()
	s.Leave(slots - 1)
}

// TestSlotsOldestFastPathAllocFree pins the oldest-begin fast path (and the
// Enter/Leave stores) at zero heap allocations.
func TestSlotsOldestFastPathAllocFree(t *testing.T) {
	s := NewSlots(16)
	var c clock.Clock
	c.Tick()
	s.Enter(0, &c)
	s.OldestBegin() // warm the cache
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := s.OldestBegin(); !ok {
			t.Fatal("lost the resident")
		}
	}); n != 0 {
		t.Errorf("OldestBegin fast path allocates %.1f per call", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		c.Tick()
		s.Enter(1, &c)
		s.Leave(1)
	}); n != 0 {
		t.Errorf("Enter/Leave allocates %.1f per cycle", n)
	}
	s.Leave(0)
}

// Benchmarks: the §II-C ablation. BenchmarkTrackerEnterLeave measures the
// begin/end critical path; BenchmarkTrackerOldest measures the fence-side
// query with a resident holder. Run both with -bench Tracker to compare the
// spin-locked list against the slot array.
func BenchmarkTrackerEnterLeave(b *testing.B) {
	b.Run("list", func(b *testing.B) {
		l := New()
		var c clock.Clock
		b.RunParallel(func(pb *testing.PB) {
			n := &Node{}
			for pb.Next() {
				c.Tick()
				l.Enter(n, &c)
				l.Remove(n)
			}
		})
	})
	b.Run("slots", func(b *testing.B) {
		s := NewSlots(256)
		var c clock.Clock
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			id := int(next.Add(1) - 1)
			for pb.Next() {
				c.Tick()
				s.Enter(id, &c)
				s.Leave(id)
			}
		})
	})
}

func BenchmarkTrackerOldest(b *testing.B) {
	b.Run("list", func(b *testing.B) {
		l := New()
		var c clock.Clock
		c.Tick()
		resident := &Node{}
		l.Enter(resident, &c)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := l.OldestBegin(); !ok {
				b.Fatal("lost resident")
			}
		}
	})
	b.Run("slots", func(b *testing.B) {
		s := NewSlots(256)
		var c clock.Clock
		c.Tick()
		s.Enter(0, &c)
		s.OldestBegin()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := s.OldestBegin(); !ok {
				b.Fatal("lost resident")
			}
		}
	})
}
