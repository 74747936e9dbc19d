// Package hybrid implements the paper's dynamic hybrid of strict in-order
// commits and partially visible reads (§IV).
//
// Unlike the undo-log PVR engines, the hybrid buffers updates in a redo
// log. A transaction starts with invisible, incrementally validated reads.
// Once its read set grows past a threshold (16 in the paper) *and* it has
// observed some concurrent writer commit (by monitoring the global clock at
// each read and write), it puts itself on the central list and makes all
// its reads partially visible. Writers must honour both mechanisms: they
// commit in strict ticket order *and* check their write set for partially
// visible readers, waiting at the privatization fence on conflict — the
// "two-fold overhead" §V discusses.
package hybrid

import (
	"privstm/internal/core"
	"privstm/internal/failpoint"
	"privstm/internal/heap"
)

// Engine is the hybrid STM.
type Engine struct {
	rt *core.Runtime
}

// New returns a hybrid engine on rt; the visibility threshold comes from
// the runtime's HybridThreshold option (paper value 16).
func New(rt *core.Runtime) *Engine { return &Engine{rt: rt} }

// Name returns the figure label.
func (e *Engine) Name() string { return "pvrHybrid" }

// Begin starts in invisible mode. The redo log permits snapshot extension;
// central-list registration and visibility hints stay anchored at BeginTS,
// so the fence arguments are unchanged (an extension past a privatizer's
// commit requires a validation pass proving we read nothing it wrote).
func (e *Engine) Begin(t *core.Thread) {
	t.GateSerialized()
	t.ResetTxnState()
	t.StartSnapshot(e.rt.Clock.Now())
	t.ExtendOK = true
	t.PublishActive(t.BeginTS)
}

// Read serves buffered writes, performs a consistent read, polls for
// incremental validation, and applies the mode-switch rule.
func (e *Engine) Read(t *core.Thread, a heap.Addr) heap.Word {
	if w, ok := t.Redo.Get(a); ok {
		return w
	}
	if t.Visible {
		// Visible mode: writers fence for us, and commits still validate,
		// so the per-read incremental validation — the very cost the
		// mode switch exists to shed — is no longer needed.
		return t.ReadVisible(a, true, core.VisStore)
	}
	w := t.ReadHeapConsistent(a)
	t.PollValidate()
	e.maybeGoVisible(t)
	return w
}

// Write buffers the store and applies the mode-switch rule.
func (e *Engine) Write(t *core.Thread, a heap.Addr, w heap.Word) {
	t.Redo.Put(a, w)
	t.Wrote = true
	if !t.Visible {
		e.maybeGoVisible(t)
	}
}

// maybeGoVisible switches to partially visible reads once the read set has
// crossed the threshold and another writer has committed since we began
// (the clock has moved past our begin time).
func (e *Engine) maybeGoVisible(t *core.Thread) {
	// "Another writer has committed since we began" is judged on the
	// commit signal, not the bare clock, so the rule keeps firing under
	// the deferred clock modes (core.CommitSignal).
	if t.Reads.Len() <= e.rt.HybridThreshold || e.rt.CommitSignal() <= t.BeginSignal {
		return
	}
	if t.EpochPinned {
		// Weak reads already registered us on the tracker at BeginTS (the
		// epoch pin); adopt that entry rather than double-entering.
		t.EpochPinned = false
	} else {
		e.rt.Active.EnterAt(t, t.BeginTS)
	}
	failpoint.Eval(failpoint.BeginEnteredBeforePublish)
	t.Visible = true
	t.Stats.ModeSwitches++
	t.ForgetVisibility() // the read memo was armed by invisible reads
	n := t.Reads.Len()
	for i := 0; i < n; i++ {
		t.MakeVisible(t.Reads.At(i).Orec, true, core.VisStore)
	}
	// Revalidate after publishing hints: a writer whose conflict scan
	// preceded them will not fence for us, so we must be provably
	// un-doomed at this point (see pvr.goVisible).
	if !t.ValidateReads() {
		t.ConflictAbort()
	}
}

// SemanticCommitCapable marks that Commit runs the abstract-lock hooks of
// the semantic conflict layer (core.SemCommitter).
func (e *Engine) SemanticCommitCapable() {}

// Commit combines the ordered commit of §IV with the PVR writer-side scan:
// acquire, take a ticket, validate, write back, wait to be served, scan for
// partially visible readers while still owning the write set, release in
// order, and finally fence if a conflict was detected.
func (e *Engine) Commit(t *core.Thread) bool {
	rt := e.rt
	if !t.Wrote {
		if !t.SemPreCommit() {
			e.cleanupAbort(t)
			return false
		}
		t.SemPostCommit()
		if t.Visible {
			rt.Active.Leave(t)
		}
		t.PublishInactive()
		t.Stats.ReadOnlyCommits++
		return true
	}
	if !t.AcquireWriteSet() {
		e.cleanupAbort(t)
		return false
	}
	failpoint.Eval(failpoint.AcquiredBeforeWriteback)
	if !t.SemPreCommit() {
		t.Acq.RestoreAll()
		e.cleanupAbort(t)
		return false
	}
	ticket := rt.Order.Take()
	if !t.ValidateReads() {
		t.SemAbortRelease()
		rt.Order.Wait(ticket)
		rt.Order.Done(ticket)
		t.Acq.RestoreAll()
		e.cleanupAbort(t)
		return false
	}
	wts := t.CommitTS()
	t.SemPostCommit()
	t.Redo.WriteBack(rt.Heap)
	if !rt.Order.Served(ticket) {
		t.Stats.OrderWaits++
		rt.Order.Wait(ticket)
	}
	threshold, conflict := t.ReaderConflictScan(true)
	threshold = rt.CapFence(threshold, wts)
	t.Acq.ReleaseAll(wts)
	rt.Order.Done(ticket)
	if t.Visible {
		rt.Active.Leave(t)
	}
	t.PublishInactive()
	t.Stats.WriterCommits++
	failpoint.Eval(failpoint.CommitBeforeFence)
	if conflict {
		t.PrivatizationFence(threshold)
	}
	return true
}

// Cancel aborts an in-flight transaction, leaving the central list if the
// transaction had gone visible.
func (e *Engine) Cancel(t *core.Thread) {
	e.cleanupAbort(t)
}

func (e *Engine) cleanupAbort(t *core.Thread) {
	if t.Visible {
		e.rt.Active.Leave(t)
	}
	t.PublishInactive()
}
