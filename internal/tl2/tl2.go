// Package tl2 implements the baseline STM of §V: a system modeled on TL2
// (Dice, Shavit & Shalev) — redo logging, commit-time locking, and a global
// version clock. TL2 does **not** guarantee privatization safety; the paper
// uses it as "a trivial upper bound on the throughput one might ideally
// hope to combine with privatization safety", and so do we.
package tl2

import (
	"privstm/internal/core"
	"privstm/internal/failpoint"
	"privstm/internal/heap"
)

// Engine is the TL2 baseline.
type Engine struct {
	rt *core.Runtime
}

// New returns a TL2 engine on rt.
func New(rt *core.Runtime) *Engine { return &Engine{rt: rt} }

// Name returns the figure label.
func (e *Engine) Name() string { return "TL2" }

// Begin samples the global version clock and opts into snapshot extension
// (a stale read triggers a timestamp extension attempt instead of an
// unconditional abort, the TinySTM/LSA refinement of TL2's read rule).
func (e *Engine) Begin(t *core.Thread) {
	t.GateSerialized()
	t.ResetTxnState()
	t.StartSnapshot(e.rt.Clock.Now())
	t.ExtendOK = true
	t.PublishActive(t.BeginTS)
}

// Read returns the buffered value for addresses this transaction has
// written, and otherwise performs the timestamp-checked consistent read.
func (e *Engine) Read(t *core.Thread, a heap.Addr) heap.Word {
	if w, ok := t.Redo.Get(a); ok {
		return w
	}
	return t.ReadHeapConsistent(a)
}

// Write buffers the store in the redo log.
func (e *Engine) Write(t *core.Thread, a heap.Addr, w heap.Word) {
	t.Redo.Put(a, w)
	t.Wrote = true
}

// SemanticCommitCapable marks that Commit runs the abstract-lock hooks of
// the semantic conflict layer (core.SemCommitter).
func (e *Engine) SemanticCommitCapable() {}

// Commit is the TL2 protocol: lock the write set, increment the clock,
// validate the read set (skipped when no other writer intervened), write
// back, and release the locks at the new timestamp. Abstract locks ride
// alongside: acquired and validated after the word-level write set
// (SemPreCommit), published before any word becomes visible
// (SemPostCommit runs before the write-back).
func (e *Engine) Commit(t *core.Thread) bool {
	rt := e.rt
	if !t.Wrote {
		if !t.SemPreCommit() {
			return false
		}
		t.SemPostCommit()
		t.PublishInactive()
		t.Stats.ReadOnlyCommits++
		return true
	}
	if !t.AcquireWriteSet() {
		return false
	}
	failpoint.Eval(failpoint.AcquiredBeforeWriteback)
	if !t.SemPreCommit() {
		return false
	}
	wts := t.CommitTS()
	if !t.SemStillValid() || (!t.SkipCommitValidation(wts) && !t.ValidateReads()) {
		t.SemAbortRelease()
		return false
	}
	t.SemPostCommit()
	t.Redo.WriteBack(rt.Heap)
	t.Acq.ReleaseAll(wts)
	t.PublishInactive()
	t.Stats.WriterCommits++
	return true
}
