package val

import (
	"sync"
	"testing"
	"time"

	"privstm/internal/core"
)

func newRT(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.NewRuntime(core.Options{HeapWords: 1 << 12, OrecCount: 1 << 8, MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestName(t *testing.T) {
	if New(newRT(t)).Name() != "Val" {
		t.Error("name wrong")
	}
}

func TestCommitSemantics(t *testing.T) {
	rt := newRT(t)
	e := New(rt)
	th, _ := rt.NewThread()
	a := rt.Heap.MustAlloc(2)
	if err := core.Run(e, th, func() {
		e.Write(th, a, 11)
		if got := e.Read(th, a); got != 11 {
			t.Errorf("read-your-write = %d", got)
		}
		if rt.Heap.AtomicLoad(a) != 0 {
			t.Error("redo write leaked mid-transaction")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if rt.Heap.AtomicLoad(a) != 11 {
		t.Error("commit did not write back")
	}
}

// TestEveryWriterFences: unlike PVR, Val fences unconditionally — even with
// no conflict at all, a writer commit waits for every concurrent
// transaction to reach a clean point.
func TestEveryWriterFences(t *testing.T) {
	rt := newRT(t)
	e := New(rt)
	w, _ := rt.NewThread()
	r, _ := rt.NewThread()
	a := rt.Heap.MustAlloc(1)
	b := rt.Heap.MustAlloc(1024)
	if rt.Orecs.For(a) == rt.Orecs.For(b+1000) {
		t.Skip("orec collision")
	}

	rIn := make(chan struct{})
	rGo := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = core.Run(e, r, func() {
			_ = e.Read(r, a)
			close(rIn)
			<-rGo
			// One more read: polls the clock, revalidates, publishes a
			// clean point, releasing the writer's fence.
			_ = e.Read(r, a)
		})
	}()
	<-rIn

	committed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Writes b only — zero overlap with the reader.
		_ = core.Run(e, w, func() { e.Write(w, b+1000, 1) })
		close(committed)
	}()
	select {
	case <-committed:
		t.Fatal("Val writer committed without fencing for the concurrent reader")
	case <-time.After(20 * time.Millisecond):
	}
	close(rGo)
	<-committed
	wg.Wait()
	if w.Stats.Fenced != 1 {
		t.Errorf("Fenced = %d, want 1", w.Stats.Fenced)
	}
}

func TestDoomedReaderAbortsAtFence(t *testing.T) {
	// A doomed reader must observe the conflicting commit at its next read
	// (incremental validation) and abort rather than block the fence.
	rt := newRT(t)
	e := New(rt)
	r, _ := rt.NewThread()
	w, _ := rt.NewThread()
	x := rt.Heap.MustAlloc(1)
	y := rt.Heap.MustAlloc(1)

	// The writer must run concurrently: its unconditional fence waits for
	// the reader, and the reader's abort (via incremental validation at
	// its next read) is what releases the fence — the two resolve each
	// other.
	attempts := 0
	var once sync.Once
	var wg sync.WaitGroup
	if err := core.Run(e, r, func() {
		attempts++
		if attempts > 1 {
			// The retry began at or after the writer's commit time, so the
			// fence no longer waits for it. Let the writer release x before
			// reading it: on a busy host the writer can lose the processor
			// between its tick and its release, and every read of the
			// still-owned x would be one more (legitimate) abort.
			wg.Wait()
		}
		before := rt.Clock.Now()
		_ = e.Read(r, x)
		once.Do(func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = core.Run(e, w, func() { e.Write(w, x, 1) })
			}()
			// Wait until the writer's commit has ticked the clock.
			for rt.Clock.Now() == before {
			}
		})
		_ = e.Read(r, y) // attempt 1: revalidation fails, abort
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	if w.Stats.Fenced != 1 {
		t.Errorf("writer Fenced = %d, want 1", w.Stats.Fenced)
	}
}

func TestConcurrentCounter(t *testing.T) {
	rt := newRT(t)
	e := New(rt)
	a := rt.Heap.MustAlloc(1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		th, _ := rt.NewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 250; j++ {
				_ = core.Run(e, th, func() {
					e.Write(th, a, e.Read(th, a)+1)
				})
			}
		}()
	}
	wg.Wait()
	if got := rt.Heap.AtomicLoad(a); got != 1000 {
		t.Errorf("counter = %d, want 1000", got)
	}
}
