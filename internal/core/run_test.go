package core

import (
	"errors"
	"testing"

	"privstm/internal/failpoint"
	"privstm/internal/heap"
	"privstm/internal/orec"
)

// fakeEngine is a minimal visible engine for exercising Run's control flow
// in isolation: in-place writes with undo logging, or, with redo set,
// buffered writes acquired at commit. Like every engine, it leaves an
// aborted attempt's cleanup to Run.
type fakeEngine struct {
	rt       *Runtime
	begins   int
	commitOK bool
	redo     bool
}

func (f *fakeEngine) Name() string { return "fake" }
func (f *fakeEngine) Begin(t *Thread) {
	f.begins++
	t.ResetTxnState()
	t.StartSnapshot(f.rt.Active.Enter(t))
	t.Visible = true
	t.PublishActive(t.BeginTS)
}
func (f *fakeEngine) Read(t *Thread, a heap.Addr) heap.Word { return t.readHeapConsistent(a) }
func (f *fakeEngine) Write(t *Thread, a heap.Addr, w heap.Word) {
	t.Wrote = true
	if f.redo {
		t.Redo.Put(a, w)
		return
	}
	if !t.acquireOrec(f.rt.Orecs.For(a)) {
		t.ConflictAbort()
	}
	t.Undo.Add(a, f.rt.Heap.AtomicLoad(a))
	f.rt.Heap.AtomicStore(a, w)
}
func (f *fakeEngine) Commit(t *Thread) bool {
	if f.redo && !t.acquireWriteSet() {
		return false
	}
	if !f.commitOK {
		f.commitOK = true // succeed on the retry
		return false
	}
	if t.Wrote {
		wts := t.commitTS()
		t.Redo.WriteBack(f.rt.Heap)
		t.Acq.ReleaseAll(wts)
	}
	t.PublishInactive()
	return true
}

// checkAborted checks the effects of Thread.abort on a word the aborted
// attempt wrote: the word holds want again, and its orec is unowned at a
// write timestamp above clock, the clock before the abort.
func checkAborted(t *testing.T, rt *Runtime, a heap.Addr, want heap.Word, clock uint64) {
	t.Helper()
	if got := rt.Heap.AtomicLoad(a); got != want {
		t.Errorf("word = %d after abort, want %d restored", got, want)
	}
	v := rt.Orecs.For(a).Owner().Load()
	if orec.IsOwned(v) || orec.WTS(v) <= clock {
		t.Errorf("orec after abort: owned=%v wts=%d, want unowned above %d", orec.IsOwned(v), orec.WTS(v), clock)
	}
}

// checkInactive checks that th has left the tracker and published no live
// transaction.
func checkInactive(t *testing.T, rt *Runtime, th *Thread) {
	t.Helper()
	if _, active := th.Published(); active || rt.Active.Count() != 0 {
		t.Errorf("after abort: published active=%v, tracker count %d, want inactive and 0", active, rt.Active.Count())
	}
}

func TestRunRetriesFailedCommit(t *testing.T) {
	rt := newTestRT(t, 2)
	e := &fakeEngine{rt: rt}
	th, _ := rt.NewThread()
	a := rt.Heap.MustAlloc(1)
	rt.Heap.AtomicStore(a, 7)
	runs := 0
	var clock uint64
	if err := Run(e, th, func() {
		runs++
		if runs == 2 {
			checkAborted(t, rt, a, 7, clock)
		}
		e.Write(th, a, 42)
		clock = rt.Clock.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 || e.begins != 2 {
		t.Errorf("runs=%d begins=%d, want 2/2 (one failed commit)", runs, e.begins)
	}
	if th.Stats.Aborts != 1 || th.Stats.Commits != 1 {
		t.Errorf("stats: %+v", th.Stats)
	}
	if got := rt.Heap.AtomicLoad(a); got != 42 {
		t.Errorf("committed word = %d, want 42", got)
	}
	checkInactive(t, rt, th)
}

func TestRunConflictAbortRetries(t *testing.T) {
	rt := newTestRT(t, 2)
	e := &fakeEngine{rt: rt, commitOK: true}
	th, _ := rt.NewThread()
	a := rt.Heap.MustAlloc(1)
	runs := 0
	var clock uint64
	if err := Run(e, th, func() {
		runs++
		if runs == 1 {
			e.Write(th, a, 42)
			clock = rt.Clock.Now()
			th.ConflictAbort()
		}
		checkAborted(t, rt, a, 0, clock)
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 || e.begins != 2 {
		t.Errorf("runs=%d begins=%d, want 2/2", runs, e.begins)
	}
	checkInactive(t, rt, th)
}

func TestRunUserCancelNoRetry(t *testing.T) {
	rt := newTestRT(t, 2)
	e := &fakeEngine{rt: rt, commitOK: true}
	th, _ := rt.NewThread()
	a := rt.Heap.MustAlloc(1)
	sentinel := errors.New("stop")
	runs := 0
	var clock uint64
	err := Run(e, th, func() {
		runs++
		e.Write(th, a, 42)
		clock = rt.Clock.Now()
		th.UserCancel(sentinel)
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if runs != 1 || e.begins != 1 {
		t.Errorf("runs=%d begins=%d, want 1/1", runs, e.begins)
	}
	if th.Stats.Commits != 1 {
		t.Errorf("a cancelled transaction still counts as a completed Run: %+v", th.Stats)
	}
	checkAborted(t, rt, a, 0, clock)
	checkInactive(t, rt, th)
}

func TestRunSandboxesDoomedPanic(t *testing.T) {
	// A body panic while the read set is invalid is a symptom of a doomed
	// transaction and must be retried, not propagated.
	rt := newTestRT(t, 2)
	e := &fakeEngine{rt: rt, commitOK: true}
	th, _ := rt.NewThread()
	a := rt.Heap.MustAlloc(1)
	runs := 0
	if err := Run(e, th, func() {
		runs++
		_ = e.Read(th, a)
		if runs == 1 {
			// Invalidate the read behind our back, then "crash".
			o := rt.Orecs.For(a)
			o.Owner().Store(orec.PackUnowned(rt.Clock.Tick()))
			panic("chased a torn pointer")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Errorf("runs = %d, want 2 (sandboxed retry)", runs)
	}
}

func TestRunPropagatesGenuinePanic(t *testing.T) {
	rt := newTestRT(t, 2)
	e := &fakeEngine{rt: rt, commitOK: true}
	th, _ := rt.NewThread()
	a := rt.Heap.MustAlloc(1)
	var clock uint64
	defer func() {
		if r := recover(); r != "real bug" {
			t.Errorf("recovered %v, want \"real bug\"", r)
		}
		// The attempt was aborted before the panic propagated.
		checkAborted(t, rt, a, 0, clock)
		checkInactive(t, rt, th)
	}()
	_ = Run(e, th, func() {
		e.Write(th, a, 42)
		clock = rt.Clock.Now()
		panic("real bug")
	})
}

func TestReadHeapConsistentAbortsOnForeignOwner(t *testing.T) {
	rt := newTestRT(t, 2)
	owner := newActiveThread(t, rt)
	reader := newActiveThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	if !owner.acquireOrec(rt.Orecs.For(a)) {
		t.Fatal("acquire failed")
	}
	aborted := false
	func() {
		defer func() {
			if _, ok := recover().(conflictSignal); ok {
				aborted = true
			}
		}()
		reader.readHeapConsistent(a)
	}()
	if !aborted {
		t.Error("read of a foreign-owned orec did not abort")
	}
	finish(rt, owner)
	finish(rt, reader)
}

func TestReadHeapConsistentAbortsOnNewerTimestamp(t *testing.T) {
	rt := newTestRT(t, 2)
	reader := newActiveThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	rt.Orecs.For(a).Owner().Store(orec.PackUnowned(rt.Clock.Tick()))
	aborted := false
	func() {
		defer func() {
			if _, ok := recover().(conflictSignal); ok {
				aborted = true
			}
		}()
		reader.readHeapConsistent(a)
	}()
	if !aborted {
		t.Error("read of a too-new orec did not abort")
	}
	finish(rt, reader)
}

func TestAcquireWriteSetRollsBackOnFailure(t *testing.T) {
	rt := newTestRT(t, 2)
	a := rt.Heap.MustAlloc(1)
	b := rt.Heap.MustAlloc(600)
	holder := newActiveThread(t, rt)
	w, _ := rt.NewThread()
	if rt.Orecs.For(a) == rt.Orecs.For(b+512) {
		t.Skip("orec collision")
	}
	// holder owns b's orec; w wants both a and b, in that order, so its
	// commit takes a and fails on b.
	if !holder.acquireOrec(rt.Orecs.For(b + 512)) {
		t.Fatal("setup acquire failed")
	}
	e := &fakeEngine{rt: rt, commitOK: true, redo: true}
	clock := rt.Clock.Now()
	waits := 0
	// Run aborts the failed commit before its contention-management wait:
	// a must be released there, at a fresh tick. Then let the holder go.
	failpoint.Set(failpoint.CMWait, func(string) {
		waits++
		if w.Acq.Len() != 1 {
			t.Errorf("failed acquisition kept %d orecs, want a's for abort to release", w.Acq.Len())
		}
		checkAborted(t, rt, a, 0, clock)
		holder.Acq.ReleaseAll(holder.commitTS())
		finish(rt, holder)
	})
	t.Cleanup(failpoint.Reset)
	if err := Run(e, w, func() {
		e.Write(w, a, 1)
		e.Write(w, b+512, 2)
	}); err != nil {
		t.Fatal(err)
	}
	if waits != 1 || rt.Heap.AtomicLoad(a) != 1 || rt.Heap.AtomicLoad(b+512) != 2 {
		t.Errorf("waits=%d a=%d b=%d, want one failed commit, then 1/2", waits, rt.Heap.AtomicLoad(a), rt.Heap.AtomicLoad(b+512))
	}
}

func TestPollValidateOnlyOnClockChange(t *testing.T) {
	rt := newTestRT(t, 2)
	th := newActiveThread(t, rt)
	th.LastClockSeen = rt.Clock.Now()
	th.pollValidate()
	if th.Stats.Validations != 0 {
		t.Error("validated although the clock did not move")
	}
	rt.Clock.Tick()
	th.pollValidate()
	if th.Stats.Validations != 1 {
		t.Errorf("Validations = %d, want 1", th.Stats.Validations)
	}
	// And it published the clean point.
	if th.ValidatedAt() != rt.Clock.Now() {
		t.Errorf("ValidatedAt = %d, want %d", th.ValidatedAt(), rt.Clock.Now())
	}
	finish(rt, th)
}

func TestPollValidateAbortsOnInvalidReadSet(t *testing.T) {
	rt := newTestRT(t, 2)
	th := newActiveThread(t, rt)
	a := rt.Heap.MustAlloc(1)
	_ = th.readHeapConsistent(a)
	rt.Orecs.For(a).Owner().Store(orec.PackUnowned(rt.Clock.Tick()))
	aborted := false
	func() {
		defer func() {
			if _, ok := recover().(conflictSignal); ok {
				aborted = true
			}
		}()
		th.pollValidate()
	}()
	if !aborted {
		t.Error("stale read set survived pollValidate")
	}
	finish(rt, th)
}
