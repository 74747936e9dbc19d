// Package val implements the every-transaction validation fence the paper
// compares against (curve "Val" in §V, from the authors' earlier technical
// report TR 915): a redo-log, commit-time-locking STM in which every
// committing writer, after completing its write-back, waits until every
// concurrent transaction has reached a clean point — it has finished, or it
// began after the writer's commit, or it has revalidated its read set
// against the committed state (and therefore either aborted or provably
// does not conflict).
//
// The fence runs at the end of *every* writer transaction regardless of
// conflicts, which is exactly why Val scales worst on write-heavy
// workloads (§V): its cost is unconditional, where PVR pays only on
// detected conflicts.
package val

import (
	"privstm/internal/core"
	"privstm/internal/failpoint"
	"privstm/internal/heap"
)

// Engine is the validation-fence STM.
type Engine struct {
	rt *core.Runtime
}

// New returns a Val engine on rt.
func New(rt *core.Runtime) *Engine { return &Engine{rt: rt} }

// Name returns the figure label.
func (e *Engine) Name() string { return "Val" }

// Begin samples the clock, arms incremental validation, and publishes the
// begin time as the first clean point (an empty read set is trivially
// valid).
func (e *Engine) Begin(t *core.Thread) {
	t.GateSerialized()
	t.ResetTxnState()
	t.StartSnapshot(e.rt.Clock.Now())
	t.ExtendOK = true
	t.PublishActive(t.BeginTS)
	t.SetValidated(t.BeginTS)
}

// Read is a consistent read followed by the incremental-validation poll;
// each successful poll publishes a new clean point that fencing writers
// observe.
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

// Commit runs the TL2-style ordered steps (acquire, abstract locks, tick,
// validate, write back, release) and then executes the validation fence.
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
	wts := t.CommitTS()
	if !t.SemStillValid() || (!t.SkipCommitValidation(wts) && !t.ValidateReads()) {
		t.SemAbortRelease()
		t.Acq.RestoreAll()
		t.PublishInactive()
		return false
	}
	t.SemPostCommit()
	t.Redo.WriteBack(rt.Heap)
	t.Acq.ReleaseAll(wts)
	t.PublishInactive()
	t.Stats.WriterCommits++
	failpoint.Eval(failpoint.CommitBeforeFence)
	t.ValidationFence(wts)
	return true
}

// Cancel aborts an in-flight transaction.
func (e *Engine) Cancel(t *core.Thread) {
	t.PublishInactive()
}
