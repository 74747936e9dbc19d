package core

import (
	"privstm/internal/failpoint"
	"privstm/internal/heap"
)

// LogKind selects how a policy buffers its transactional writes.
type LogKind uint8

const (
	// LogRedo buffers writes, acquires their orecs at commit and writes
	// them back (TL2 and the §IV systems).
	LogRedo LogKind = iota
	// LogUndo acquires at encounter time and writes in place, logging the
	// pre-image (the §II engines).
	LogUndo
)

// Visibility selects when a transaction's reads become partially visible.
type Visibility uint8

const (
	// VisibleNever: reads stay invisible; no writer fences for them.
	VisibleNever Visibility = iota
	// VisibleAtBegin: the transaction enters the tracker at Begin and every
	// read publishes a hint (§II).
	VisibleAtBegin
	// VisibleAtFirstWrite: reads are invisible until the first write, which
	// makes them all visible (§III-C).
	VisibleAtFirstWrite
	// VisiblePastThreshold: reads turn visible once the logged reads have
	// grown past Runtime.HybridThreshold and some writer has committed since
	// Begin (§IV's hybrid).
	VisiblePastThreshold
)

// PostCommit selects the wait a committed writer performs last.
type PostCommit uint8

const (
	// PostNone returns as soon as the commit is complete.
	PostNone PostCommit = iota
	// PostValidationFence waits for every concurrent transaction to reach
	// a clean point (Val; fence.go).
	PostValidationFence
	// PostPrivatizationFence waits, on a detected reader conflict, for the
	// readers the scan found (§II-D; fence.go).
	PostPrivatizationFence
)

// Policy is one of the eight systems of §V: a figure label plus the choices
// that tell them apart. It implements Engine, and every engine step lives
// here once, so no system can order its commit differently from another.
type Policy struct {
	Label   string
	Log     LogKind
	Visible Visibility
	Grace   bool // adaptive per-orec grace periods on visibility hints (§III-A)
	Poll    bool // incremental validation after each read made while invisible
	Ordered bool // commit, write-back and release in global ticket order (§IV)
	Post    PostCommit
}

// The eight systems, in the order the paper's figures present them.
var (
	// TL2 is the privatization-unsafe baseline of §V.
	TL2 = Policy{Label: "TL2", Log: LogRedo}
	// Ord is the strict in-order commit scheme of §IV (Detlefs et al.).
	Ord = Policy{Label: "Ord", Log: LogRedo, Poll: true, Ordered: true}
	// Val fences every writer commit on every concurrent transaction's
	// validation (TR 915).
	Val = Policy{Label: "Val", Log: LogRedo, Poll: true, Post: PostValidationFence}
	// PVRBase is the partially-visible-reads scheme of §II.
	PVRBase = Policy{Label: "pvrBase", Log: LogUndo, Visible: VisibleAtBegin, Post: PostPrivatizationFence}
	// PVRCAS adds adaptive grace periods (§III-A).
	PVRCAS = Policy{Label: "pvrCAS", Log: LogUndo, Visible: VisibleAtBegin, Grace: true, Post: PostPrivatizationFence}
	// PVRStore is the §III-B figure cell. Its store-only visibility update
	// can lower a live reader's hint (CORRECTNESS.md §4), so it runs
	// PVRCAS's choices under its own label.
	PVRStore = Policy{Label: "pvrStore", Log: LogUndo, Visible: VisibleAtBegin, Grace: true, Post: PostPrivatizationFence}
	// PVRWriterOnly adds the read-only transaction optimization (§III-C).
	PVRWriterOnly = Policy{Label: "pvrWriterOnly", Log: LogUndo, Visible: VisibleAtFirstWrite, Grace: true, Poll: true, Post: PostPrivatizationFence}
	// PVRHybrid combines strict ordering with partial visibility (§IV).
	PVRHybrid = Policy{Label: "pvrHybrid", Log: LogRedo, Visible: VisiblePastThreshold, Grace: true, Poll: true, Ordered: true, Post: PostPrivatizationFence}
)

// Name returns the figure label.
func (p *Policy) Name() string { return p.Label }

// Begin starts a transaction. A policy visible from Begin enters the
// tracker there (its begin timestamp is assigned by the tracker, so list
// order matches timestamp order); every other policy samples the clock and,
// with a redo log, may extend its snapshot. The undo-log policies keep
// ValidTS pinned at BeginTS, so the §II fence proofs apply verbatim.
func (p *Policy) Begin(t *Thread) {
	t.gateSerialized()
	t.ResetTxnState()
	if p.Visible == VisibleAtBegin {
		t.StartSnapshot(t.RT.Active.Enter(t))
		t.Visible = true
		failpoint.Eval(failpoint.BeginEnteredBeforePublish)
	} else {
		t.StartSnapshot(t.RT.Clock.Now())
		t.ExtendOK = p.Log == LogRedo
	}
	t.PublishActive(t.BeginTS)
	if p.Post == PostValidationFence {
		// An empty read set is trivially valid: Begin is the first clean
		// point writers' validation fences observe.
		t.setValidated(t.BeginTS)
	}
}

// Read is a transactional load: a buffered write if there is one; else a
// partially visible read while visible; else an invisible consistent read,
// followed, when the policy polls, by incremental validation — so a doomed
// transaction aborts before the value reaches user code (§IV) — and the
// hybrid's mode-switch check.
func (p *Policy) Read(t *Thread, a heap.Addr) heap.Word {
	if p.Log == LogRedo {
		if w, ok := t.Redo.Get(a); ok {
			return w
		}
	}
	if t.Visible {
		// Writers fence for visible readers, and commits still validate,
		// so a visible read needs no poll.
		return t.readVisible(a, p.Grace)
	}
	w := t.readHeapConsistent(a)
	if p.Poll {
		t.pollValidate()
		if p.Visible == VisiblePastThreshold {
			t.maybeGoVisible(p.Grace)
		}
	}
	return w
}

// Write is a transactional store: buffered in the redo log, or performed in
// place under an orec acquired at encounter time with the pre-image logged.
// A §III-C transaction goes visible first.
func (p *Policy) Write(t *Thread, a heap.Addr, w heap.Word) {
	if p.Log == LogRedo {
		t.Redo.Put(a, w)
		t.Wrote = true
		if p.Visible == VisiblePastThreshold && !t.Visible {
			t.maybeGoVisible(p.Grace)
		}
		return
	}
	if p.Visible == VisibleAtFirstWrite && !t.Visible {
		t.goVisible(p.Grace)
	}
	// Sandbox bounds guard before the in-place write: an address computed
	// from torn reads must not fault (or clobber a live word) mid-attempt.
	t.CheckAddr(a)
	if !t.acquireOrec(t.RT.Orecs.For(a)) {
		t.ConflictAbort()
	}
	failpoint.Eval(failpoint.AcquiredBeforeWriteback)
	t.Undo.Add(a, t.RT.Heap.AtomicLoad(a))
	t.RT.Heap.AtomicStore(a, w)
	t.Wrote = true
}

// maybeGoVisible is the hybrid's mode switch, checked at each invisible read
// and write (§IV): go visible once the logged reads have crossed the
// threshold and the clock has moved past our begin time (some writer
// committed). Reads count as logged: one per memo miss, so a block read
// again after another block counts again. On the paper's list walks, which
// read a node's key and then its next, that is one per node visited, plus
// one per snapshot extension taken between the two (an extension drops the
// memo, so the node's next is logged again).
func (t *Thread) maybeGoVisible(useGrace bool) {
	if t.Reads.Len() > t.RT.HybridThreshold && t.RT.Clock.Now() > t.BeginTS {
		t.goVisible(useGrace)
	}
}

// goVisible turns an invisible transaction visible mid-flight: it joins the
// tracker at its original begin timestamp (a sorted insert — newer
// transactions are already on it) and makes every prior read partially
// visible. The read set must then be revalidated *after* the hints are
// published: a writer whose conflict scan predates them will not fence for
// us, so if such a writer has already committed against our read set we
// are doomed and abort here, before any in-place write. If the validation
// passes, every later conflicting writer's scan follows our hint stores and
// fences.
func (t *Thread) goVisible(useGrace bool) {
	if t.EpochPinned {
		// Weak reads already registered us on the tracker at BeginTS (the
		// epoch pin): adopt that entry, since entering twice would corrupt
		// the list tracker's linkage.
		t.EpochPinned = false
	} else {
		t.RT.Active.EnterAt(t, t.BeginTS)
	}
	failpoint.Eval(failpoint.BeginEnteredBeforePublish)
	t.Visible = true
	t.Stats.ModeSwitches++
	t.forgetVisibility() // the read memo was armed by invisible reads
	n := t.Reads.Len()
	for i := 0; i < n; i++ {
		t.MakeVisible(t.Reads.At(i).Orec, useGrace)
	}
	if !t.ValidateReads() {
		t.ConflictAbort()
	}
}

// Commit is every policy's commit, in one order:
//
//  1. a read-only transaction runs the semantic hooks and ends;
//  2. a redo log acquires its write set (an undo log already owns it);
//  3. the abstract locks are acquired and their samples checked;
//  4. an ordered policy takes its ticket;
//  5. the clock ticks: the write timestamp;
//  6. one commitValidate; on failure the stripes are restored and the
//     ticket passed on, and Run's abort releases the rest;
//  7. the stripe versions are bumped, before any new data is observable;
//  8. a redo log writes back;
//  9. an ordered policy waits to be served;
//  10. a policy that can have visible readers scans its owned orecs for
//     them, while still owning them;
//  11. the orecs are released at the write timestamp;
//  12. an ordered policy admits its successor;
//  13. the transaction leaves the tracker and publishes inactive;
//  14. the post-commit fence, if any.
//
// CORRECTNESS.md §15 argues the order.
func (p *Policy) Commit(t *Thread) bool {
	rt := t.RT
	if !t.Wrote {
		if !t.semPreCommit() {
			return false
		}
		t.semPostCommit()
		t.PublishInactive()
		t.Stats.ReadOnlyCommits++
		return true
	}
	if p.Log == LogRedo {
		if !t.acquireWriteSet() {
			return false
		}
		failpoint.Eval(failpoint.AcquiredBeforeWriteback)
	}
	if !t.semPreCommit() {
		return false
	}
	var ticket uint64
	if p.Ordered {
		// Taken after the stripes, so a busy stripe aborts without entering
		// the serving sequence.
		ticket = rt.Order.Take()
	}
	wts := t.commitTS()
	if !p.commitValidate(t, wts) {
		t.semAbortRelease()
		if p.Ordered {
			// An aborting holder still waits its turn and passes the
			// ticket on, or the serving sequence stops.
			rt.Order.Wait(ticket)
			rt.Order.Done(ticket)
		}
		return false
	}
	t.semPostCommit()
	if p.Log == LogRedo {
		t.Redo.WriteBack(rt.Heap)
	}
	if p.Ordered && !rt.Order.Served(ticket) {
		t.Stats.OrderWaits++
		rt.Order.Wait(ticket)
	}
	var threshold uint64
	var conflict bool
	if p.Visible != VisibleNever {
		threshold, conflict = t.readerConflictScan(p.Grace)
		threshold = rt.capFence(threshold, wts)
	}
	t.Acq.ReleaseAll(wts)
	if p.Ordered {
		rt.Order.Done(ticket)
	}
	t.PublishInactive()
	t.Stats.WriterCommits++
	switch p.Post {
	case PostValidationFence:
		failpoint.Eval(failpoint.CommitBeforeFence)
		t.validationFence(wts)
	case PostPrivatizationFence:
		failpoint.Eval(failpoint.CommitBeforeFence)
		if conflict {
			t.privatizationFence(threshold)
		}
	}
	return true
}

// commitValidate is the commit-time validation of every policy, run once
// the write timestamp wts is taken. The stripe samples are re-checked first
// (semStillValid). The read set is then validated unless wts == ValidTS+1:
// timestamps are unique and totally ordered, and every writer owns its
// write set from before its tick, so when our tick is the only one since
// the snapshot was last validated no rival commit can have invalidated it
// (the classic TL2 inference). An ordered policy never skips. Its writers
// tick in any order but release in ticket order, and the skip would let a
// writer commit ahead, in clock order, of a conflicting writer holding an
// earlier ticket, which does not wait for it: its delayed write-back could
// then land on data that writer has privatized (CORRECTNESS.md §15).
func (p *Policy) commitValidate(t *Thread, wts uint64) bool {
	return t.semStillValid() && (!p.Ordered && wts == t.ValidTS+1 || t.ValidateReads())
}
