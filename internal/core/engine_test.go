package core

import (
	"sync"
	"testing"
	"time"

	"privstm/internal/failpoint"
	"privstm/internal/heap"
)

// Policies lists the eight systems in the order the paper's figures
// present them.
var Policies = []*Policy{&TL2, &Ord, &Val, &PVRBase, &PVRCAS, &PVRStore, &PVRWriterOnly, &PVRHybrid}

func newEngineRT(t *testing.T) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Options{HeapWords: 1 << 12, OrecCount: 1 << 8, MaxThreads: 8, HybridThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func newEngineThread(t *testing.T, rt *Runtime) *Thread {
	t.Helper()
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// forPolicies runs fn as one subtest per policy that keep selects, on a
// fresh runtime each.
func forPolicies(t *testing.T, keep func(*Policy) bool, fn func(t *testing.T, rt *Runtime, e *Policy)) {
	t.Helper()
	for _, e := range Policies {
		if keep(e) {
			t.Run(e.Name(), func(t *testing.T) { fn(t, newEngineRT(t), e) })
		}
	}
}

func all(*Policy) bool          { return true }
func redo(e *Policy) bool       { return e.Log == LogRedo }
func undo(e *Policy) bool       { return e.Log == LogUndo }
func ordered(e *Policy) bool    { return e.Ordered }
func visibleNow(e *Policy) bool { return e.Visible == VisibleAtBegin }

type errString string

func (e errString) Error() string { return string(e) }

var errSentinel = errString("sentinel")

// parkReader runs a transaction on th that reads a and then blocks until
// the returned channel is closed.
func parkReader(t *testing.T, wg *sync.WaitGroup, e *Policy, th *Thread, a heap.Addr) (release chan struct{}) {
	t.Helper()
	in, release := make(chan struct{}), make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = Run(e, th, func() {
			_ = e.Read(th, a)
			close(in)
			<-release
		})
	}()
	<-in
	return release
}

// expectBlocked fails unless done stays open for a short while.
func expectBlocked(t *testing.T, done <-chan struct{}, msg string) {
	t.Helper()
	select {
	case <-done:
		t.Fatal(msg)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestPolicyNames checks the figure names, one subtest per engine family,
// and that Policies lists them in paper order.
func TestPolicyNames(t *testing.T) {
	families := []struct {
		family string
		ps     []*Policy
		want   []string
	}{
		{"TL2", []*Policy{&TL2}, []string{"TL2"}},
		{"Ord", []*Policy{&Ord}, []string{"Ord"}},
		{"Val", []*Policy{&Val}, []string{"Val"}},
		{"pvr", []*Policy{&PVRBase, &PVRCAS, &PVRStore, &PVRWriterOnly}, []string{"pvrBase", "pvrCAS", "pvrStore", "pvrWriterOnly"}},
		{"pvrHybrid", []*Policy{&PVRHybrid}, []string{"pvrHybrid"}},
	}
	var order []*Policy
	for _, f := range families {
		order = append(order, f.ps...)
		t.Run(f.family, func(t *testing.T) {
			for i, e := range f.ps {
				if e.Name() != f.want[i] {
					t.Errorf("Name = %q, want %q", e.Name(), f.want[i])
				}
			}
		})
	}
	if len(Policies) != len(order) {
		t.Fatalf("%d policies, want %d", len(Policies), len(order))
	}
	for i, e := range Policies {
		if e != order[i] {
			t.Errorf("policy %d is %q, want %q", i, e.Name(), order[i].Name())
		}
	}
}

func TestConcurrentCounter(t *testing.T) {
	forPolicies(t, all, func(t *testing.T, rt *Runtime, e *Policy) {
		a := rt.Heap.MustAlloc(1)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			th := newEngineThread(t, rt)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 250; j++ {
					_ = Run(e, th, func() { e.Write(th, a, e.Read(th, a)+1) })
				}
			}()
		}
		wg.Wait()
		if got := rt.Heap.AtomicLoad(a); got != 1000 {
			t.Errorf("counter = %d, want 1000", got)
		}
	})
}

// TestSingleThreadFastPathSkipsValidation: with no other writer every
// commit's tick is the only one since its snapshot, so a long solo run
// commits without an abort.
func TestSingleThreadFastPathSkipsValidation(t *testing.T) {
	forPolicies(t, all, func(t *testing.T, rt *Runtime, e *Policy) {
		th := newEngineThread(t, rt)
		a := rt.Heap.MustAlloc(1)
		for i := 0; i < 1000; i++ {
			if err := Run(e, th, func() { e.Write(th, a, e.Read(th, a)+1) }); err != nil {
				t.Fatal(err)
			}
		}
		if got := rt.Heap.AtomicLoad(a); got != 1000 {
			t.Errorf("counter = %d", got)
		}
		if th.Stats.Aborts != 0 {
			t.Errorf("solo run aborted %d times", th.Stats.Aborts)
		}
	})
}

func TestRedoBuffering(t *testing.T) {
	forPolicies(t, redo, func(t *testing.T, rt *Runtime, e *Policy) {
		th := newEngineThread(t, rt)
		a := rt.Heap.MustAlloc(1)
		if err := Run(e, th, func() {
			e.Write(th, a, 5)
			if rt.Heap.AtomicLoad(a) != 0 {
				t.Error("redo write leaked to memory mid-transaction")
			}
			if got := e.Read(th, a); got != 5 {
				t.Errorf("read-your-write = %d", got)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if got := rt.Heap.AtomicLoad(a); got != 5 {
			t.Errorf("value after commit = %d", got)
		}
	})
}

func TestInPlaceWriteAndRollback(t *testing.T) {
	forPolicies(t, undo, func(t *testing.T, rt *Runtime, e *Policy) {
		th := newEngineThread(t, rt)
		a := rt.Heap.MustAlloc(2)
		if err := Run(e, th, func() {
			e.Write(th, a, 10)
			e.Write(th, a+1, 20)
		}); err != nil {
			t.Fatal(err)
		}
		if rt.Heap.AtomicLoad(a) != 10 || rt.Heap.AtomicLoad(a+1) != 20 {
			t.Fatal("committed values wrong")
		}
		// In-place speculation is visible mid-transaction and undone on
		// user cancel.
		err := Run(e, th, func() {
			e.Write(th, a, 99)
			if rt.Heap.AtomicLoad(a) != 99 {
				t.Error("in-place write not visible in memory")
			}
			th.UserCancel(errSentinel)
		})
		if err != errSentinel {
			t.Fatalf("err = %v", err)
		}
		if got := rt.Heap.AtomicLoad(a); got != 10 {
			t.Errorf("rollback left %d, want 10", got)
		}
		if rt.Active.Count() != 0 {
			t.Error("central list not empty after cancel")
		}
	})
}

// TestCommitValidationCatchesConflict: a reader that read x, saw a
// conflicting writer commit (on the same goroutine, so only policies whose
// writer does not wait for the reader), and then commits a write elsewhere
// must fail commit-time validation, retry, pass its ticket on and leave
// the tracker.
func TestCommitValidationCatchesConflict(t *testing.T) {
	keep := func(e *Policy) bool { return e.Log == LogRedo && e.Post != PostValidationFence }
	forPolicies(t, keep, func(t *testing.T, rt *Runtime, e *Policy) {
		r, w := newEngineThread(t, rt), newEngineThread(t, rt)
		x := rt.Heap.MustAlloc(1)
		y := rt.Heap.MustAlloc(600)
		if rt.Orecs.For(x) == rt.Orecs.For(y+512) {
			t.Skip("orec collision")
		}
		attempts := 0
		if err := Run(e, r, func() {
			attempts++
			v := e.Read(r, x)
			if attempts == 1 {
				if err := Run(e, w, func() { e.Write(w, x, 77) }); err != nil {
					t.Fatal(err)
				}
			}
			e.Write(r, y+512, v+1)
		}); err != nil {
			t.Fatal(err)
		}
		if attempts != 2 {
			t.Errorf("attempts = %d, want 2", attempts)
		}
		if got := rt.Heap.AtomicLoad(y + 512); got != 78 {
			t.Errorf("y = %d, want 78 (from the refreshed read)", got)
		}
		// The system is still usable: the ticket was passed on.
		if err := Run(e, w, func() { e.Write(w, x, 6) }); err != nil {
			t.Fatal(err)
		}
		if rt.Active.Count() != 0 {
			t.Error("tracker not empty")
		}
	})
}

// TestIncrementalValidationDoomsStaleReader: an invisible, polling reader of
// x aborts at its next read after a writer commits x — the §IV
// doomed-transaction guard — and commits read-only on retry.
func TestIncrementalValidationDoomsStaleReader(t *testing.T) {
	keep := func(e *Policy) bool { return e.Poll && e.Post != PostValidationFence }
	forPolicies(t, keep, func(t *testing.T, rt *Runtime, e *Policy) {
		r, w := newEngineThread(t, rt), newEngineThread(t, rt)
		x := rt.Heap.MustAlloc(1)
		y := rt.Heap.MustAlloc(600)
		if rt.Orecs.For(x) == rt.Orecs.For(y+512) {
			t.Skip("orec collision")
		}
		attempts := 0
		if err := Run(e, r, func() {
			attempts++
			_ = e.Read(r, x)
			if attempts == 1 {
				// The writer uses its own descriptor, which is legal on one
				// goroutine as long as the calls do not interleave.
				if err := Run(e, w, func() { e.Write(w, x, 9) }); err != nil {
					t.Fatal(err)
				}
			}
			_ = e.Read(r, y+512) // must revalidate and abort on attempt 1
		}); err != nil {
			t.Fatal(err)
		}
		if attempts != 2 || r.Stats.Aborts != 1 {
			t.Errorf("reader ran %d attempts with %d aborts, want 2 and 1", attempts, r.Stats.Aborts)
		}
		if r.Stats.ReadOnlyCommits != 1 {
			t.Errorf("ReadOnlyCommits = %d", r.Stats.ReadOnlyCommits)
		}
	})
}

// TestAbortPassesTicketOn: a committing writer whose validation fails must
// still pass the ticket to its successor, or the system deadlocks.
func TestAbortPassesTicketOn(t *testing.T) {
	forPolicies(t, ordered, func(t *testing.T, rt *Runtime, e *Policy) {
		x := rt.Heap.MustAlloc(1)
		y := rt.Heap.MustAlloc(1)
		if rt.Orecs.For(x) == rt.Orecs.For(y) {
			t.Skip("orec collision")
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			th := newEngineThread(t, rt)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 300; j++ {
					_ = Run(e, th, func() {
						vx := e.Read(th, x)
						e.Write(th, y, vx+1)
						e.Write(th, x, vx+1)
					})
				}
			}()
		}
		wg.Wait() // would hang if an aborting holder swallowed its ticket
		if gx, gy := rt.Heap.AtomicLoad(x), rt.Heap.AtomicLoad(y); gx != 1200 || gy != 1200 {
			t.Errorf("x=%d y=%d, want 1200 each", gx, gy)
		}
	})
}

// TestOrderedCommitKeepsTicketOrder is the delayed-cleanup half of
// strict ordering (§IV; CORRECTNESS.md §15): a writer W whose ticket
// follows that of a privatizer P it conflicts with must not commit. W read
// the flag f that P writes and buffered a write to x, the data P
// privatizes. P has acquired f and taken its ticket; W takes the next
// ticket and ticks first, so its tick is the only one since its snapshot.
// Had W skipped validation on that account, it would commit ahead of P in
// clock order but behind it in ticket order — P returns without waiting
// for it — and W's write-back, delayed here by a hook, would land on x
// after P had privatized and rewritten it.
func TestOrderedCommitKeepsTicketOrder(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	forPolicies(t, ordered, func(t *testing.T, rt *Runtime, e *Policy) {
		p, w := newEngineThread(t, rt), newEngineThread(t, rt)
		f := rt.Heap.MustAlloc(1)
		x := rt.Heap.MustAlloc(600) + 512
		if rt.Orecs.For(f) == rt.Orecs.For(x) {
			t.Skip("orec collision")
		}
		// W reads the flag and writes x. Its stripe gives it a pause point
		// between validation and write-back (semPostCommit, or
		// semAbortRelease when validation fails).
		e.Begin(w)
		_ = e.Read(w, f)
		e.Write(w, x, 1)
		w.SemIntendWrite(NewSemTable(2), 1)
		// P writes the flag and is committing: f acquired, ticket taken.
		e.Begin(p)
		e.Write(p, f, 1)
		if !p.acquireWriteSet() || !p.semPreCommit() {
			t.Fatal("privatizer could not start its commit")
		}
		ticket := rt.Order.Take()

		paused, resume := make(chan struct{}), make(chan struct{})
		var once sync.Once
		failpoint.Set(failpoint.SemRelease, func(string) {
			once.Do(func() { close(paused) })
			<-resume
		})
		committed := make(chan bool)
		go func() { committed <- e.Commit(w) }()
		<-paused

		// P finishes its commit, returns, and rewrites x privately.
		wts := p.commitTS()
		if !e.commitValidate(p, wts) {
			t.Fatal("privatizer failed validation")
		}
		p.Redo.WriteBack(rt.Heap)
		rt.Order.Wait(ticket)
		p.Acq.ReleaseAll(wts)
		rt.Order.Done(ticket)
		p.PublishInactive()
		rt.Heap.Store(x, 42)

		close(resume)
		if <-committed {
			t.Error("W committed behind the privatizer's ticket")
		}
		w.abort()
		if got := rt.Heap.AtomicLoad(x); got != 42 {
			t.Errorf("x = %d after the privatizer rewrote it to 42: a delayed write-back landed", got)
		}
	})
}

func TestReadOnlySkipsTicket(t *testing.T) {
	forPolicies(t, ordered, func(t *testing.T, rt *Runtime, e *Policy) {
		th := newEngineThread(t, rt)
		a := rt.Heap.MustAlloc(1)
		before := rt.Order.Acquire() // consume a ticket to observe the counter
		rt.Order.Done(before)
		if err := Run(e, th, func() { _ = e.Read(th, a) }); err != nil {
			t.Fatal(err)
		}
		after := rt.Order.Acquire()
		rt.Order.Done(after)
		if after != before+1 {
			t.Errorf("read-only transaction consumed a ticket (%d -> %d)", before, after)
		}
		if th.Stats.ReadOnlyCommits != 1 {
			t.Errorf("ReadOnlyCommits = %d", th.Stats.ReadOnlyCommits)
		}
	})
}

// TestOrdCommitAcquireFailure: a commit that cannot acquire its write set
// fails without taking a ticket and retries until the owner releases.
func TestOrdCommitAcquireFailure(t *testing.T) {
	rt := newEngineRT(t)
	e := &Ord
	holder, w := newEngineThread(t, rt), newEngineThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	holder.ResetTxnState()
	holder.StartSnapshot(rt.Clock.Now())
	holder.PublishActive(holder.BeginTS)
	if !holder.acquireOrec(rt.Orecs.For(a)) {
		t.Fatal("setup acquire failed")
	}
	done := make(chan struct{})
	go func() {
		_ = Run(e, w, func() { e.Write(w, a, 1) })
		close(done)
	}()
	holder.Acq.ReleaseAll(rt.Clock.Tick())
	holder.PublishInactive()
	<-done
	if got := rt.Heap.AtomicLoad(a); got != 1 {
		t.Errorf("a = %d, want 1", got)
	}
}

// TestEveryWriterFences: Val fences unconditionally — even with no
// conflict at all, a writer commit waits for every concurrent transaction
// to reach a clean point.
func TestEveryWriterFences(t *testing.T) {
	rt := newEngineRT(t)
	e := &Val
	w, r := newEngineThread(t, rt), newEngineThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	b := rt.Heap.MustAlloc(1024)
	if rt.Orecs.For(a) == rt.Orecs.For(b+1000) {
		t.Skip("orec collision")
	}
	rIn, rGo := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = Run(e, r, func() {
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
		_ = Run(e, w, func() { e.Write(w, b+1000, 1) }) // disjoint from the reader
		close(committed)
	}()
	expectBlocked(t, committed, "Val writer committed without fencing for the concurrent reader")
	close(rGo)
	<-committed
	wg.Wait()
	if w.Stats.Fenced != 1 {
		t.Errorf("Fenced = %d, want 1", w.Stats.Fenced)
	}
}

// TestDoomedReaderAbortsAtFence: a doomed Val reader observes the
// conflicting commit at its next read (incremental validation) and aborts,
// which is what releases the writer's fence.
func TestDoomedReaderAbortsAtFence(t *testing.T) {
	rt := newEngineRT(t)
	e := &Val
	r, w := newEngineThread(t, rt), newEngineThread(t, rt)
	x := rt.Heap.MustAlloc(1)
	y := rt.Heap.MustAlloc(1)
	attempts := 0
	var once sync.Once
	var wg sync.WaitGroup
	if err := Run(e, r, func() {
		attempts++
		if attempts > 1 {
			// The retry began at or after the writer's commit time, so the
			// fence no longer waits for it. Let the writer release x first:
			// on a busy host it can lose the processor between its tick and
			// its release, and every read of the still-owned x would be one
			// more (legitimate) abort.
			wg.Wait()
		}
		before := rt.Clock.Now()
		_ = e.Read(r, x)
		once.Do(func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = Run(e, w, func() { e.Write(w, x, 1) })
			}()
			for rt.Clock.Now() == before { // until the writer has ticked
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

func TestReadersEnterCentralList(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRBase
	th := newEngineThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	entered := -1
	if err := Run(e, th, func() {
		_ = e.Read(th, a)
		entered = rt.Active.Count()
	}); err != nil {
		t.Fatal(err)
	}
	if entered != 1 {
		t.Errorf("central list length during txn = %d, want 1", entered)
	}
	if rt.Active.Count() != 0 {
		t.Error("central list not empty after commit")
	}
}

func TestWriterOnlyReadOnlySkipsCentralList(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRWriterOnly
	th := newEngineThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	during := -1
	if err := Run(e, th, func() {
		_ = e.Read(th, a)
		during = rt.Active.Count()
	}); err != nil {
		t.Fatal(err)
	}
	if during != 0 {
		t.Errorf("read-only writerOnly txn appeared on central list (len %d)", during)
	}
	if th.Stats.ReadOnlyCommits != 1 {
		t.Errorf("ReadOnlyCommits = %d", th.Stats.ReadOnlyCommits)
	}
}

func TestWriterOnlyGoesVisibleOnFirstWrite(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRWriterOnly
	th := newEngineThread(t, rt)
	a := rt.Heap.MustAlloc(2)
	var before, after int
	if err := Run(e, th, func() {
		_ = e.Read(th, a)
		before = rt.Active.Count()
		e.Write(th, a+1, 5)
		after = rt.Active.Count()
	}); err != nil {
		t.Fatal(err)
	}
	if before != 0 || after != 1 {
		t.Errorf("list length before/after first write = %d/%d, want 0/1", before, after)
	}
	if th.Stats.ModeSwitches != 1 {
		t.Errorf("ModeSwitches = %d", th.Stats.ModeSwitches)
	}
}

// TestWriterOnlyInvisibleCancel: cancelling before the first write must
// not touch the tracker (the transaction never joined it).
func TestWriterOnlyInvisibleCancel(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRWriterOnly
	th := newEngineThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	err := Run(e, th, func() {
		_ = e.Read(th, a)
		th.UserCancel(errSentinel)
	})
	if err != errSentinel {
		t.Fatal(err)
	}
	if rt.Active.Count() != 0 {
		t.Error("tracker not empty after invisible cancel")
	}
}

// TestGoVisibleAbortsWhenDoomed: the §III-C transition itself aborts a
// transaction whose reads were invalidated before its first write — the
// bug the privatization stressor originally caught.
func TestGoVisibleAbortsWhenDoomed(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRWriterOnly
	r, w := newEngineThread(t, rt), newEngineThread(t, rt)
	x := rt.Heap.MustAlloc(1)
	target := rt.Heap.MustAlloc(600)
	if rt.Orecs.For(x) == rt.Orecs.For(target+512) {
		t.Skip("orec collision")
	}
	attempts := 0
	if err := Run(e, r, func() {
		attempts++
		_ = e.Read(r, x)
		if attempts == 1 {
			// Invalidate the read, then write without reading again, so
			// only goVisible's revalidation can refuse.
			if err := Run(e, w, func() { e.Write(w, x, 1) }); err != nil {
				t.Fatal(err)
			}
		}
		e.Write(r, target+512, 9)
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2 (goVisible must doom attempt 1)", attempts)
	}
	if got := rt.Heap.AtomicLoad(target + 512); got != 9 {
		t.Errorf("retry did not commit: %d", got)
	}
}

// TestWriterFencesOnReaderConflict drives the full §II flow: a reader makes
// a location partially visible; a writer that commits a write to it waits
// at the privatization fence until the reader finishes.
func TestWriterFencesOnReaderConflict(t *testing.T) {
	forPolicies(t, visibleNow, func(t *testing.T, rt *Runtime, e *Policy) {
		reader, writer := newEngineThread(t, rt), newEngineThread(t, rt)
		a := rt.Heap.MustAlloc(1)
		var wg sync.WaitGroup
		release := parkReader(t, &wg, e, reader, a)
		committed := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = Run(e, writer, func() { e.Write(writer, a, 42) })
			close(committed)
		}()
		expectBlocked(t, committed, "writer returned without fencing for the live reader")
		close(release)
		<-committed
		wg.Wait()
		if writer.Stats.Fenced != 1 {
			t.Errorf("Fenced = %d, want 1", writer.Stats.Fenced)
		}
	})
}

// TestVisibleReaderFencesWriter drives the hybrid's PVR half: once a reader
// is visible, a conflicting writer waits at the privatization fence.
func TestVisibleReaderFencesWriter(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRHybrid
	r, w := newEngineThread(t, rt), newEngineThread(t, rt)
	base := rt.Heap.MustAlloc(64)
	rIn, rGo := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = Run(e, r, func() {
			rt.Clock.Tick() // a writer committed since we began
			for i := 0; i < 40; i++ {
				_ = e.Read(r, base+heap.Addr(i))
			}
			close(rIn)
			<-rGo
		})
	}()
	<-rIn
	committed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = Run(e, w, func() { e.Write(w, base, 1) })
		close(committed)
	}()
	expectBlocked(t, committed, "hybrid writer ignored a partially visible reader")
	close(rGo)
	<-committed
	wg.Wait()
	if w.Stats.Fenced != 1 || w.Stats.WriterCommits != 1 {
		t.Errorf("Fenced = %d, WriterCommits = %d, want 1 and 1", w.Stats.Fenced, w.Stats.WriterCommits)
	}
}

// TestWriterSkipsFenceWithoutConflict: disjoint access parallelism must not
// fence (the whole point of partial visibility).
func TestWriterSkipsFenceWithoutConflict(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRBase
	reader, writer := newEngineThread(t, rt), newEngineThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	b := rt.Heap.MustAlloc(1024) // far away: different orec
	if rt.Orecs.For(a) == rt.Orecs.For(b+1000) {
		t.Skip("orec collision between chosen addresses")
	}
	var wg sync.WaitGroup
	release := parkReader(t, &wg, e, reader, a)
	if err := Run(e, writer, func() { e.Write(writer, b+1000, 1) }); err != nil {
		t.Fatal(err)
	}
	if writer.Stats.Fenced != 0 {
		t.Errorf("disjoint writer fenced (%d)", writer.Stats.Fenced)
	}
	close(release)
	wg.Wait()
}

// TestWriteAfterReadNoSelfFence: §II-E — a transaction that reads then
// writes d must not fence on its own visibility hint, even with another
// (non-conflicting) live transaction.
func TestWriteAfterReadNoSelfFence(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRBase
	th, other := newEngineThread(t, rt), newEngineThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	if rt.Orecs.For(a) == rt.Orecs.For(a+512) {
		t.Skip("orec collision")
	}
	var wg sync.WaitGroup
	release := parkReader(t, &wg, e, other, a+512) // unrelated location
	done := make(chan struct{})
	go func() {
		_ = Run(e, th, func() { e.Write(th, a, e.Read(th, a)+1) })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("write-after-read fenced against itself (deadlocked on own hint)")
	}
	if th.Stats.Fenced != 0 {
		t.Errorf("Fenced = %d, want 0", th.Stats.Fenced)
	}
	close(release)
	wg.Wait()
}

// TestSecondReaderForcesFenceViaMultiBit: §II-E's other half — if the
// writer itself read d but so did someone else, the multi bit forces the
// fence.
func TestSecondReaderForcesFenceViaMultiBit(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRBase
	w, r := newEngineThread(t, rt), newEngineThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	wIn, wGo := make(chan struct{}), make(chan struct{})
	committed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = Run(e, w, func() {
			v := e.Read(w, a)
			close(wIn)
			<-wGo
			e.Write(w, a, v+1)
		})
		close(committed)
	}()
	<-wIn
	release := parkReader(t, &wg, e, r, a)
	close(wGo)
	expectBlocked(t, committed, "writer ignored the second concurrent reader")
	close(release)
	<-committed
	wg.Wait()
	if w.Stats.Fenced != 1 {
		t.Errorf("Fenced = %d, want 1", w.Stats.Fenced)
	}
}

func TestAbortedWriterDoesNotFence(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRBase
	r, w := newEngineThread(t, rt), newEngineThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	var wg sync.WaitGroup
	release := parkReader(t, &wg, e, r, a)
	// The writer writes a, conflicting with the reader, but cancels.
	if err := Run(e, w, func() {
		e.Write(w, a, 7)
		w.UserCancel(errSentinel)
	}); err != errSentinel {
		t.Fatal(err)
	}
	if w.Stats.Fenced != 0 {
		t.Errorf("aborted writer fenced (%d)", w.Stats.Fenced)
	}
	if rt.Heap.AtomicLoad(a) != 0 {
		t.Error("cancel did not roll back")
	}
	close(release)
	wg.Wait()
}

func TestGraceLoweredOnWriterConflict(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRCAS
	r, w := newEngineThread(t, rt), newEngineThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	o := rt.Orecs.For(a)
	rt.Orecs.Grace(o).Store(64)
	var wg sync.WaitGroup
	release := parkReader(t, &wg, e, r, a)
	graceAfterRead := rt.Orecs.Grace(o).Load()
	if graceAfterRead != 128 {
		t.Errorf("grace after successful visibility update = %d, want 128", graceAfterRead)
	}
	done := make(chan struct{})
	go func() {
		_ = Run(e, w, func() { e.Write(w, a, 9) })
		close(done)
	}()
	time.Sleep(10 * time.Millisecond) // the writer should now be fencing
	close(release)
	<-done
	wg.Wait()
	if got := rt.Orecs.Grace(o).Load(); got != graceAfterRead/2 {
		t.Errorf("grace after writer conflict = %d, want %d", got, graceAfterRead/2)
	}
	if w.Stats.Fenced != 1 {
		t.Errorf("Fenced = %d", w.Stats.Fenced)
	}
}

// TestUndoEngineCommitValidationFails: a writer whose read set goes stale
// after its in-place writes rolls back at commit and retries.
func TestUndoEngineCommitValidationFails(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRBase
	r, w := newEngineThread(t, rt), newEngineThread(t, rt)
	x := rt.Heap.MustAlloc(1)
	y := rt.Heap.MustAlloc(600)
	if rt.Orecs.For(x) == rt.Orecs.For(y+512) {
		t.Skip("orec collision")
	}
	// The conflicting writer runs concurrently: it fences on the reader's
	// hint for x, and the reader's commit-time validation failure (abort,
	// tracker exit) is what releases it.
	attempts := 0
	var once sync.Once
	var wg sync.WaitGroup
	if err := Run(e, r, func() {
		attempts++
		v := e.Read(r, x)
		e.Write(r, y+512, v+100)
		once.Do(func() {
			before := rt.Clock.Now()
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = Run(e, w, func() { e.Write(w, x, 7) })
			}()
			for rt.Clock.Now() == before { // until the writer has committed
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if attempts != 2 || r.Stats.Aborts != 1 {
		t.Errorf("attempts = %d, aborts = %d, want 2 and 1", attempts, r.Stats.Aborts)
	}
	if got := rt.Heap.AtomicLoad(y + 512); got != 107 {
		t.Errorf("y = %d, want 107 (committed from refreshed read)", got)
	}
}

// TestCapFenceWaitsOnlyForOlderReaders: with CapFenceAtCommit a fencing
// writer waits for the transactions that began before its commit's tick
// and for nothing else — it returns as soon as the one older reader ends,
// with no further commit, even while a reader that began at the commit
// time itself is still running. (Capped at wts instead of wts−1, the fence
// needed oldest-begin > wts: it sat there until that younger reader ended
// or some other thread ticked the clock.)
func TestCapFenceWaitsOnlyForOlderReaders(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	rt, err := NewRuntime(Options{HeapWords: 1 << 12, OrecCount: 1 << 8, MaxThreads: 8, CapFenceAtCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	e := &PVRCAS
	older, younger, writer := newEngineThread(t, rt), newEngineThread(t, rt), newEngineThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	b := rt.Heap.MustAlloc(1)
	// A grace period in place: the older reader's hint, and with it the
	// uncapped threshold, lands far beyond the writer's commit time.
	rt.Orecs.Grace(rt.Orecs.For(a)).Store(64)
	var wg sync.WaitGroup
	olderGo := parkReader(t, &wg, e, older, a)

	fencing := make(chan struct{})
	var once sync.Once
	failpoint.Set(failpoint.FencePrivWait, func(string) { once.Do(func() { close(fencing) }) })
	committed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = Run(e, writer, func() { e.Write(writer, a, 42) })
		close(committed)
	}()
	<-fencing // the writer has ticked, released, and is waiting for `older`
	failpoint.Reset()

	youngerGo := parkReader(t, &wg, e, younger, b)
	if younger.BeginTS != writer.LastCommitTS {
		t.Fatalf("younger reader began at %d, want the writer's commit time %d", younger.BeginTS, writer.LastCommitTS)
	}
	expectBlocked(t, committed, "writer returned while the older reader was still live")
	close(olderGo)
	select {
	case <-committed:
	case <-time.After(5 * time.Second):
		t.Errorf("capped fence still waiting after the only older reader ended (clock %d, commit %d)",
			rt.Clock.Now(), writer.LastCommitTS)
	}
	close(youngerGo)
	<-committed
	wg.Wait()
	if writer.Stats.Fenced != 1 {
		t.Errorf("Fenced = %d, want 1", writer.Stats.Fenced)
	}
}

func TestStaysInvisibleBelowThreshold(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRHybrid
	th := newEngineThread(t, rt)
	base := rt.Heap.MustAlloc(64)
	rt.Clock.Tick() // a writer has committed, but the read set stays small
	if err := Run(e, th, func() {
		for i := 0; i < 8; i++ {
			_ = e.Read(th, base+heap.Addr(i))
		}
		if rt.Active.Count() != 0 {
			t.Error("transaction went visible below the threshold")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if th.Stats.ModeSwitches != 0 {
		t.Errorf("ModeSwitches = %d", th.Stats.ModeSwitches)
	}
}

// TestStaysInvisibleWithoutWriterCommit: a large read set but no concurrent
// writer commit — both conditions are required for the switch (§IV).
func TestStaysInvisibleWithoutWriterCommit(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRHybrid
	th := newEngineThread(t, rt)
	base := rt.Heap.MustAlloc(64)
	if err := Run(e, th, func() {
		for i := 0; i < 40; i++ {
			_ = e.Read(th, base+heap.Addr(i))
		}
		if rt.Active.Count() != 0 {
			t.Error("transaction went visible with a quiescent clock")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGoesVisiblePastThresholdAfterWriterCommit(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRHybrid
	th := newEngineThread(t, rt)
	base := rt.Heap.MustAlloc(64)
	if err := Run(e, th, func() {
		rt.Clock.Tick() // the clock moves after this transaction begins
		for i := 0; i < 40; i++ {
			_ = e.Read(th, base+heap.Addr(i))
		}
		if rt.Active.Count() != 1 {
			t.Error("transaction did not go visible past the threshold")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if th.Stats.ModeSwitches != 1 {
		t.Errorf("ModeSwitches = %d, want 1", th.Stats.ModeSwitches)
	}
	if rt.Active.Count() != 0 {
		t.Error("central list not empty after commit")
	}
}

// TestWritePathTriggersSwitch: the mode-switch rule is monitored at writes
// too ("monitoring the global clock at each read and write", §IV).
func TestWritePathTriggersSwitch(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRHybrid
	th := newEngineThread(t, rt)
	base := rt.Heap.MustAlloc(64)
	stride := heap.Addr(rt.Orecs.BlockWords()) // one read-set entry per block
	if err := Run(e, th, func() {
		for i := heap.Addr(0); i < 20; i++ {
			_ = e.Read(th, base+i*stride)
		}
		// The reads crossed the threshold with a quiescent clock; the
		// clock now moves, and the next write must make the switch.
		rt.Clock.Tick()
		e.Write(th, base+60, 1)
		if !th.Visible {
			t.Error("transaction not visible after threshold + clock movement")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelWhileVisible(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRHybrid
	th := newEngineThread(t, rt)
	base := rt.Heap.MustAlloc(64)
	stride := heap.Addr(rt.Orecs.BlockWords()) // one read-set entry per block
	err := Run(e, th, func() {
		rt.Clock.Tick()
		for i := heap.Addr(0); i < 20; i++ {
			_ = e.Read(th, base+i*stride)
		}
		if !th.Visible {
			t.Fatal("expected visible mode")
		}
		th.UserCancel(errSentinel)
	})
	if err != errSentinel {
		t.Fatal(err)
	}
	if rt.Active.Count() != 0 {
		t.Error("tracker not empty after visible cancel")
	}
}

// TestRedoReadYourWritesInvisibleAndVisible: read-your-writes holds in
// both of the hybrid's modes.
func TestRedoReadYourWritesInvisibleAndVisible(t *testing.T) {
	rt := newEngineRT(t)
	e := &PVRHybrid
	th := newEngineThread(t, rt)
	base := rt.Heap.MustAlloc(128)
	stride := heap.Addr(rt.Orecs.BlockWords()) // one read-set entry per block
	if err := Run(e, th, func() {
		e.Write(th, base, 7)
		if got := e.Read(th, base); got != 7 {
			t.Errorf("invisible RYW = %d", got)
		}
		rt.Clock.Tick()
		for i := heap.Addr(1); i <= 20; i++ {
			_ = e.Read(th, base+i*stride)
		}
		e.Write(th, base+100, 9)
		if !th.Visible {
			t.Error("expected visible mode")
		}
		if got := e.Read(th, base); got != 7 {
			t.Errorf("visible RYW = %d", got)
		}
		if got := e.Read(th, base+100); got != 9 {
			t.Errorf("visible RYW new = %d", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if rt.Heap.AtomicLoad(base) != 7 || rt.Heap.AtomicLoad(base+100) != 9 {
		t.Error("write-back missing")
	}
}
