package ord

import (
	"sync"
	"testing"

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

func engines(rt *core.Runtime) []*Engine { return []*Engine{New(rt), NewQueue(rt)} }

func TestNames(t *testing.T) {
	rt := newRT(t)
	if New(rt).Name() != "Ord" || NewQueue(rt).Name() != "OrdQueue" {
		t.Error("engine names wrong")
	}
}

func TestRedoBuffering(t *testing.T) {
	for _, e := range engines(newRT(t)) {
		rt := e.rt
		th, _ := rt.NewThread()
		a := rt.Heap.MustAlloc(1)
		if err := core.Run(e, th, func() {
			e.Write(th, a, 5)
			// Buffered: memory must NOT change until commit.
			if rt.Heap.AtomicLoad(a) != 0 {
				t.Errorf("%s: redo write leaked to memory mid-txn", e.Name())
			}
			if got := e.Read(th, a); got != 5 {
				t.Errorf("%s: read-your-write = %d", e.Name(), got)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if got := rt.Heap.AtomicLoad(a); got != 5 {
			t.Errorf("%s: value after commit = %d", e.Name(), got)
		}
	}
}

func TestIncrementalValidationDoomsStaleReader(t *testing.T) {
	// A transaction that has read x aborts at its next read after another
	// transaction commits a write to x — the §IV doomed-transaction guard.
	rt := newRT(t)
	e := New(rt)
	r, _ := rt.NewThread()
	w, _ := rt.NewThread()
	x := rt.Heap.MustAlloc(1)
	y := rt.Heap.MustAlloc(1)

	attempts := 0
	if err := core.Run(e, r, func() {
		attempts++
		_ = e.Read(r, x)
		if attempts == 1 {
			// Overlap a conflicting writer commit (same goroutine: the
			// writer uses its own descriptor, which is legal as long as
			// the calls do not interleave).
			if err := core.Run(e, w, func() { e.Write(w, x, 9) }); err != nil {
				t.Fatal(err)
			}
		}
		_ = e.Read(r, y) // must trigger revalidation and abort on attempt 1
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("reader ran %d attempts, want 2 (doomed once)", attempts)
	}
	if r.Stats.Aborts != 1 {
		t.Errorf("Aborts = %d, want 1", r.Stats.Aborts)
	}
}

func TestAbortPassesTicketOn(t *testing.T) {
	// A committing writer whose validation fails must still pass the
	// ticket to its successor — otherwise the system deadlocks.
	rt := newRT(t)
	e := New(rt)
	x := rt.Heap.MustAlloc(1)
	y := rt.Heap.MustAlloc(1)
	if rt.Orecs.For(x) == rt.Orecs.For(y) {
		t.Skip("orec collision")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		th, _ := rt.NewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				_ = core.Run(e, th, func() {
					vx := e.Read(th, x)
					e.Write(th, y, vx+1)
					e.Write(th, x, vx+1)
				})
			}
		}()
	}
	wg.Wait() // would hang if an aborting holder swallowed its ticket
	if got, want := rt.Heap.AtomicLoad(x), rt.Heap.AtomicLoad(y); got != want {
		t.Errorf("x=%d y=%d diverged", got, want)
	}
	if rt.Heap.AtomicLoad(x) != 1200 {
		t.Errorf("x = %d, want 1200", rt.Heap.AtomicLoad(x))
	}
}

func TestReadOnlySkipsTicket(t *testing.T) {
	rt := newRT(t)
	e := New(rt)
	th, _ := rt.NewThread()
	a := rt.Heap.MustAlloc(1)
	before := rt.Order.Take() // consume a ticket to observe the counter
	rt.Order.Wait(before)
	rt.Order.Done(before)
	if err := core.Run(e, th, func() { _ = e.Read(th, a) }); err != nil {
		t.Fatal(err)
	}
	after := rt.Order.Take()
	rt.Order.Wait(after)
	rt.Order.Done(after)
	if after != before+1 {
		t.Errorf("read-only transaction consumed a ticket (%d -> %d)", before, after)
	}
	if th.Stats.ReadOnlyCommits != 1 {
		t.Errorf("ReadOnlyCommits = %d", th.Stats.ReadOnlyCommits)
	}
}

func TestQueueVariantConcurrent(t *testing.T) {
	rt := newRT(t)
	e := NewQueue(rt)
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

// TestQueueVariantAbortPassesPosition mirrors TestAbortPassesTicketOn for
// the CLH queue variant: validation failures must release the queue
// position, or the system deadlocks.
func TestQueueVariantAbortPassesPosition(t *testing.T) {
	rt := newRT(t)
	e := NewQueue(rt)
	x := rt.Heap.MustAlloc(1)
	y := rt.Heap.MustAlloc(1)
	if rt.Orecs.For(x) == rt.Orecs.For(y) {
		t.Skip("orec collision")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		th, _ := rt.NewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 250; j++ {
				_ = core.Run(e, th, func() {
					vx := e.Read(th, x)
					e.Write(th, y, vx+1)
					e.Write(th, x, vx+1)
				})
			}
		}()
	}
	wg.Wait()
	if got := rt.Heap.AtomicLoad(x); got != 1000 {
		t.Errorf("x = %d, want 1000", got)
	}
	if got := rt.Heap.AtomicLoad(y); got != 1000 {
		t.Errorf("y = %d, want 1000", got)
	}
}

// TestOrdCommitAcquireFailure: a commit that cannot acquire its write set
// aborts cleanly without consuming a ticket.
func TestOrdCommitAcquireFailure(t *testing.T) {
	rt := newRT(t)
	e := New(rt)
	holder, _ := rt.NewThread()
	w, _ := rt.NewThread()
	a := rt.Heap.MustAlloc(1)
	// Simulate a concurrent owner by acquiring directly.
	holder.ResetTxnState()
	holder.StartSnapshot(rt.Clock.Now())
	holder.PublishActive(holder.BeginTS)
	if !holder.AcquireOrec(rt.Orecs.For(a)) {
		t.Fatal("setup acquire failed")
	}
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		_ = core.Run(e, w, func() { e.Write(w, a, 1) })
		close(done)
	}()
	go func() {
		<-release
		holder.Acq.ReleaseAll(rt.Clock.Tick())
		holder.PublishInactive()
	}()
	close(release)
	<-done // w retries until the holder releases, then commits
	if got := rt.Heap.AtomicLoad(a); got != 1 {
		t.Errorf("a = %d, want 1", got)
	}
}
