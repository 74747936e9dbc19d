// Package pvr implements the paper's partially-visible-read STM engines:
// the undo-log word-based STM of §II with the four variants evaluated in
// §V:
//
//	pvrBase       — CAS visibility updates, no grace periods (§II)
//	pvrCAS        — adds adaptive per-orec grace periods (§III-A)
//	pvrStore      — replaces the CAS with the store-only protocol (§III-B)
//	pvrWriterOnly — adds the read-only transaction optimization (§III-C)
//
// Writes are performed in place with per-location undo logging; readers
// leave partial-visibility hints; committing writers that detect a possible
// reader conflict execute a privatization fence.
package pvr

import (
	"privstm/internal/core"
	"privstm/internal/failpoint"
	"privstm/internal/heap"
)

// Engine is one configured PVR variant. Create with NewBase, NewCAS,
// NewStore or NewWriterOnly.
type Engine struct {
	rt         *core.Runtime
	name       string
	grace      bool          // adaptive grace periods (§III-A)
	proto      core.VisProto // CAS or store-only visibility updates
	writerOnly bool          // read-only transaction optimization (§III-C)
}

// NewBase returns the basic scheme of §II: CAS updates, G = 0.
func NewBase(rt *core.Runtime) *Engine {
	return &Engine{rt: rt, name: "pvrBase", proto: core.VisCAS}
}

// NewCAS returns pvrBase augmented with adaptive grace periods (§III-A).
func NewCAS(rt *core.Runtime) *Engine {
	return &Engine{rt: rt, name: "pvrCAS", grace: true, proto: core.VisCAS}
}

// NewStore returns pvrCAS with the CAS-free visibility update of §III-B.
func NewStore(rt *core.Runtime) *Engine {
	return &Engine{rt: rt, name: "pvrStore", grace: true, proto: core.VisStore}
}

// NewWriterOnly returns pvrStore plus the read-only optimization of §III-C:
// transactions run with invisible, incrementally validated reads until their
// first write, at which point they join the central list and make every
// prior read partially visible.
func NewWriterOnly(rt *core.Runtime) *Engine {
	return &Engine{rt: rt, name: "pvrWriterOnly", grace: true, proto: core.VisStore, writerOnly: true}
}

// Name returns the figure label of the variant.
func (e *Engine) Name() string { return e.name }

// Begin starts a transaction. Unless the read-only optimization applies,
// the transaction immediately enters the central list (its begin timestamp
// is assigned under the list lock so list order matches timestamp order).
func (e *Engine) Begin(t *core.Thread) {
	t.GateSerialized()
	t.ResetTxnState()
	// ExtendOK stays false: the undo-log engines write in place, so their
	// snapshots are pinned at BeginTS and the §II fence proofs apply
	// verbatim (ValidTS == BeginTS throughout).
	if e.writerOnly {
		t.StartSnapshot(e.rt.Clock.Now())
	} else {
		t.StartSnapshot(e.rt.Active.Enter(t))
		t.Visible = true
		failpoint.Eval(failpoint.BeginEnteredBeforePublish)
	}
	t.PublishActive(t.BeginTS)
}

// Read performs a transactional load of a: publish partial visibility on
// the covering orec, then do the timestamp-checked consistent read
// (core.Thread.ReadVisible).
func (e *Engine) Read(t *core.Thread, a heap.Addr) heap.Word {
	if e.writerOnly && !t.Visible {
		// Invisible mode: consistent read plus incremental validation in
		// place of visibility (§III-C: read-only transactions validate
		// whenever a writer commits).
		w := t.ReadHeapConsistent(a)
		t.PollValidate()
		return w
	}
	return t.ReadVisible(a, e.grace, e.proto)
}

// Write performs an in-place transactional store with undo logging,
// acquiring the covering orec at encounter time.
func (e *Engine) Write(t *core.Thread, a heap.Addr, w heap.Word) {
	if e.writerOnly && !t.Visible {
		e.goVisible(t)
	}
	// Sandbox bounds guard before the in-place write: an address computed
	// from torn reads must not fault (or clobber a live word) mid-attempt.
	t.CheckAddr(a)
	o := t.RT.Orecs.For(a)
	if !t.AcquireOrec(o) {
		t.ConflictAbort()
	}
	failpoint.Eval(failpoint.AcquiredBeforeWriteback)
	t.Undo.Add(a, t.RT.Heap.AtomicLoad(a))
	t.RT.Heap.AtomicStore(a, w)
	t.Wrote = true
}

// goVisible is the §III-C transition: about to make a first write, the
// transaction joins the central list at its original begin timestamp (a
// sorted insert — newer transactions are already on the list) and makes all
// its reads partially visible, protecting it from both halves of the
// privatization problem from here on.
//
// The read set must then be revalidated *after* the hints are published:
// a writer whose commit-time conflict scan predates our hints will not
// fence for us, so if any such writer has already committed against our
// read set we are doomed and must abort before performing any in-place
// write. (If the validation passes, every later-committing conflicting
// writer's scan is ordered after our hint stores and will fence.)
func (e *Engine) goVisible(t *core.Thread) {
	if t.EpochPinned {
		// Weak reads already registered us on the tracker at BeginTS (the
		// epoch pin); adopt that entry rather than double-entering, which
		// would corrupt the list tracker's linkage.
		t.EpochPinned = false
	} else {
		e.rt.Active.EnterAt(t, t.BeginTS)
	}
	failpoint.Eval(failpoint.BeginEnteredBeforePublish)
	t.Visible = true
	t.Stats.ModeSwitches++
	// The read memo was armed by invisible reads: disarm it before the
	// first visible one.
	t.ForgetVisibility()
	n := t.Reads.Len()
	for i := 0; i < n; i++ {
		t.MakeVisible(t.Reads.At(i).Orec, e.grace, e.proto)
	}
	if !t.ValidateReads() {
		t.ConflictAbort()
	}
}

// SemanticCommitCapable marks that Commit runs the abstract-lock hooks of
// the semantic conflict layer (core.SemCommitter).
func (e *Engine) SemanticCommitCapable() {}

// Commit finishes the transaction. Writers validate their read set, scan
// their owned orecs for possible reader conflicts, release ownership at a
// fresh timestamp, leave the central list, and only then — per §II-D —
// wait at the privatization fence if a conflict was found. Abstract locks
// are acquired before the commit timestamp (the word orecs are already
// held from encounter time) and released by SemPostCommit before the
// orecs, so stripe bumps precede data visibility.
func (e *Engine) Commit(t *core.Thread) bool {
	rt := e.rt
	if !t.Wrote {
		if !t.SemPreCommit() {
			if t.Visible {
				rt.Active.Leave(t)
			}
			t.PublishInactive()
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
	if !t.SemPreCommit() {
		e.rollback(t)
		return false
	}
	wts := t.CommitTS()
	if !t.SemStillValid() || (!t.SkipCommitValidation(wts) && !t.ValidateReads()) {
		t.SemAbortRelease()
		e.rollback(t)
		return false
	}
	threshold, conflict := t.ReaderConflictScan(e.grace)
	threshold = rt.CapFence(threshold, wts)
	t.SemPostCommit()
	t.Acq.ReleaseAll(wts)
	rt.Active.Leave(t)
	t.PublishInactive()
	t.Stats.WriterCommits++
	failpoint.Eval(failpoint.CommitBeforeFence)
	if conflict {
		t.PrivatizationFence(threshold)
	}
	return true
}

// Cancel rolls back an in-flight transaction: undo the in-place writes,
// restore orec ownership, and only then leave the central list — aborted
// transactions must remain visible to fences until their cleanup completes
// (§II-C). Aborted transactions never fence.
func (e *Engine) Cancel(t *core.Thread) {
	if t.Wrote {
		e.rollback(t)
		return
	}
	if t.Visible {
		e.rt.Active.Leave(t)
	}
	t.PublishInactive()
}

func (e *Engine) rollback(t *core.Thread) {
	t.Undo.Rollback(e.rt.Heap)
	t.Acq.RestoreAll()
	if t.Visible {
		e.rt.Active.Leave(t)
	}
	t.PublishInactive()
}
