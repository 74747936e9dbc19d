// Package ord implements the strict in-order commit approach of §IV, in
// the style attributed to Detlefs et al.: a redo-log STM in which "a
// committing writer first acquires ownership of locations it intends to
// update, then requests a global ticket lock (takes a ticket), validates
// its read set, writes back its speculative updates, waits for its ticket
// to be served, and then increments the ticket for its successor."
//
// Keeping commit and cleanup in serialization order solves the delayed
// cleanup half of the privatization problem without any fence; the doomed
// transaction half is handled with incremental validation — the full read
// set is revalidated whenever the global clock moves (the approach §IV
// credits to the Microsoft system).
//
// Read-only transactions touch no central data structure at all, which is
// why Ord excels on read-dominated workloads (§V).
package ord

import (
	"privstm/internal/core"
	"privstm/internal/failpoint"
	"privstm/internal/heap"
)

// Engine is the strict-ordering STM.
type Engine struct {
	rt *core.Runtime
	// useQueue selects the CLH queue lock instead of the ticket lock; the
	// paper reports both performed equally well (§IV).
	useQueue bool
}

// New returns the ticket-lock variant whose results the paper reports.
func New(rt *core.Runtime) *Engine { return &Engine{rt: rt} }

// NewQueue returns the queue-lock variant mentioned in §IV.
func NewQueue(rt *core.Runtime) *Engine { return &Engine{rt: rt, useQueue: true} }

// Name returns the figure label.
func (e *Engine) Name() string {
	if e.useQueue {
		return "OrdQueue"
	}
	return "Ord"
}

// Begin samples the clock, arms incremental validation, and opts into
// snapshot extension (redo log: no in-place writes, so an extended
// snapshot is just a later begin time).
func (e *Engine) Begin(t *core.Thread) {
	t.GateSerialized()
	t.ResetTxnState()
	t.StartSnapshot(e.rt.Clock.Now())
	t.ExtendOK = true
	t.PublishActive(t.BeginTS)
}

// Read is a consistent read followed by the incremental-validation poll:
// if some writer committed since our last check, the whole read set is
// revalidated before the loaded value can be acted upon, so a doomed
// transaction aborts before consuming state a privatizer may be mutating.
func (e *Engine) Read(t *core.Thread, a heap.Addr) heap.Word {
	if w, ok := t.Redo.Get(a); ok {
		return w
	}
	w := t.ReadHeapConsistent(a)
	t.PollValidate()
	return w
}

// Write buffers the store in the redo log.
func (e *Engine) Write(t *core.Thread, a heap.Addr, w heap.Word) {
	t.Redo.Put(a, w)
	t.Wrote = true
}

// SemanticCommitCapable marks that Commit runs the abstract-lock hooks of
// the semantic conflict layer (core.SemCommitter).
func (e *Engine) SemanticCommitCapable() {}

// Commit implements the ordered commit. Aborting ticket holders still wait
// for their turn before passing the ticket on, preserving the serving
// sequence. Abstract locks are acquired before the ticket (a busy stripe
// aborts without entering the serving sequence) and released by
// SemPostCommit before the write-back, so stripe bumps always precede data
// visibility.
func (e *Engine) Commit(t *core.Thread) bool {
	rt := e.rt
	if !t.Wrote {
		if !t.SemPreCommit() {
			t.PublishInactive()
			return false
		}
		t.SemPostCommit()
		t.PublishInactive()
		t.Stats.ReadOnlyCommits++
		return true
	}
	if !t.AcquireWriteSet() {
		t.PublishInactive()
		return false
	}
	failpoint.Eval(failpoint.AcquiredBeforeWriteback)
	if !t.SemPreCommit() {
		t.Acq.RestoreAll()
		t.PublishInactive()
		return false
	}
	if e.useQueue {
		return e.commitQueue(t)
	}
	ticket := rt.Order.Take()
	if !t.ValidateReads() {
		t.SemAbortRelease()
		rt.Order.Wait(ticket)
		rt.Order.Done(ticket)
		t.Acq.RestoreAll()
		t.PublishInactive()
		return false
	}
	wts := t.CommitTS()
	t.SemPostCommit()
	t.Redo.WriteBack(rt.Heap)
	if !rt.Order.Served(ticket) {
		t.Stats.OrderWaits++
		rt.Order.Wait(ticket)
	}
	t.Acq.ReleaseAll(wts)
	rt.Order.Done(ticket)
	t.PublishInactive()
	t.Stats.WriterCommits++
	return true
}

func (e *Engine) commitQueue(t *core.Thread) bool {
	rt := e.rt
	n := rt.OrderQ.Enqueue()
	if !t.ValidateReads() {
		t.SemAbortRelease()
		rt.OrderQ.Wait(n)
		rt.OrderQ.Done(n)
		t.Acq.RestoreAll()
		t.PublishInactive()
		return false
	}
	wts := t.CommitTS()
	t.SemPostCommit()
	t.Redo.WriteBack(rt.Heap)
	t.Stats.OrderWaits++
	rt.OrderQ.Wait(n)
	t.Acq.ReleaseAll(wts)
	rt.OrderQ.Done(n)
	t.PublishInactive()
	t.Stats.WriterCommits++
	return true
}

// Cancel aborts an in-flight transaction; nothing global is held before
// Commit, so only the descriptor needs resetting.
func (e *Engine) Cancel(t *core.Thread) {
	t.PublishInactive()
}
