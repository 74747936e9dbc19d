package core

import (
	"fmt"
	"sync/atomic"

	"privstm/internal/failpoint"
	"privstm/internal/heap"
	"privstm/internal/logs"
	"privstm/internal/orec"
	"privstm/internal/reclaim"
	"privstm/internal/spin"
	"privstm/internal/stats"
)

// Thread is a per-worker transaction descriptor. One Thread supports one
// transaction at a time; engines store all per-transaction state here so
// that steady-state transactions allocate nothing.
type Thread struct {
	RT *Runtime
	ID uint64

	// Rl is this thread's owner-only reclamation front (cached from
	// RT.Reclaim at registration): Retire/AllocReused run once per node in
	// allocation-heavy workloads, so their fast paths must be direct
	// inlinable calls.
	Rl *reclaim.Local

	// layoutPad keeps BeginTS and every field after it at the offsets they
	// had when a 32-byte central-list node sat here (BeginTS at 56). The
	// set_write benchmark's two-worker loop is bimodal, and a 32-byte shift
	// of BeginTS..Sem tips it into the slow mode: core.fenced_pct 5 → 24 %,
	// aborts 0.44 → 1.95 per kop, ops_per_s −22 % in 7 of 7 paired runs
	// (EXPERIMENTS.md "One tracker"). TestThreadLayout pins the offsets.
	layoutPad [4]uint64

	// BeginTS is the global-clock value recorded at transaction begin. It
	// anchors everything the privatization proofs reason about: tracker
	// registration, visibility-hint coverage, and fence thresholds.
	BeginTS uint64
	// ValidTS is the top of the transaction's validity interval (snapshot
	// extension): every logged read is known consistent with a snapshot at
	// this clock time, so reads accept data with wts ≤ ValidTS. It starts
	// at BeginTS and advances only through a successful full read-set
	// validation (TryExtend/pollValidate) on engines that set ExtendOK.
	ValidTS uint64
	// ExtendOK is set by the redo-log engines (Ord, Val, TL2, pvrHybrid)
	// whose snapshots may be extended; the in-place PVR engines keep
	// ValidTS pinned to BeginTS so the §II fence arguments are untouched.
	ExtendOK bool

	Reads logs.ReadSet
	Undo  logs.Undo
	Redo  logs.Redo
	Acq   logs.Acquired
	// Sem is the semantic-layer log (sem.go): abstract-lock stripes sampled
	// and to acquire, plus commuting counter deltas. Empty — and free — for
	// plain word-level transactions.
	Sem logs.SemLog

	Stats stats.Counters

	// Wrote is set on the first transactional write.
	Wrote bool
	// Visible is set while the transaction's reads are partially visible
	// (it is on the active tracker).
	Visible bool
	// LastClockSeen is the global clock as of the last incremental
	// validation (redo-log engines' doomed-transaction polling).
	LastClockSeen uint64
	// Attempts counts consecutive aborts of the current Run, for
	// contention-management backoff.
	Attempts int
	// EpochPinned is set when an invisible transaction registered itself on
	// the active tracker solely to block epoch reclamation under its weak
	// reads (ReadWeak); PublishInactive releases the pin. A transaction that
	// later turns Visible (hybrid/writerOnly mode switches) inherits the
	// tracker entry instead of re-entering.
	EpochPinned bool
	// TxnAllocs are extents allocated by MustAllocTxn across the attempts of
	// the current Run: entries below txnAllocCur are consumed by the current
	// attempt, the rest are leftovers from aborted attempts awaiting reuse
	// (FinishCommit retires whatever a committed attempt did not consume).
	TxnAllocs   []TxnExtent
	txnAllocCur int
	// commitRetires is the RetireOnCommit schedule: extents the current
	// attempt unlinked, retired by FinishCommit iff the attempt commits.
	commitRetires []TxnExtent
	// LastCommitTS is the write timestamp of this thread's most recent
	// writer commit (recorded by commitTS): the threshold WeakQuiesce drains
	// the tracker below, and the floor of RetireStamp (CORRECTNESS.md §14).
	LastCommitTS uint64
	// VisPub logs the (orec, rts) hints this transaction published; the
	// writer-side self-test (readerConflictScan) only treats a hint as the
	// writer's own if it appears here. Open-addressed and epoch-reset
	// (logs.PubLog), so steady-state publication is alloc-free.
	VisPub logs.PubLog
	// memoOrec and memoOwner are the same-block read memo: the orec of the
	// block this transaction last read successfully, and the owner word that
	// read was consistent with (an unowned wts ≤ ValidTS, or this thread's
	// own ownership). The read has logged (memoOrec, wts) and — on the
	// visible paths — established visibility on it, both stable for the rest
	// of the transaction, so the next load of the same block with the owner
	// word unchanged repeats only the consistent read itself (readMemo;
	// CORRECTNESS.md §10). Cleared per transaction, on snapshot extension
	// and on an invisible → visible switch (forgetVisibility).
	memoOrec  *orec.Orec
	memoOwner uint64
	// noMemo keeps the memo disarmed; only the memo-equivalence property
	// test sets it.
	noMemo bool

	// cm is the backoff Run waits on between attempts (cm.go).
	cm spin.Backoff

	// pub publishes (beginTS<<1 | active) for other threads: the liveness
	// checks in the visibility protocol (§II-E) and the validation fence
	// read it.
	pub atomic.Uint64
	// pubSeq counts PublishActive calls. The stall watchdog uses it to
	// distinguish successive transactions that begin at the same clock
	// value (the clock ticks only when a writer commits or aborts), so a
	// thread that completes and restarts counts as progress even when its
	// new begin timestamp is unchanged.
	pubSeq atomic.Uint64
	// lastValidated publishes the clock time of this thread's most recent
	// successful full read-set validation, for the Val engine's fence.
	lastValidated atomic.Uint64

	// padding to keep descriptors from false-sharing in the registry.
	_ [8]uint64
}

// PublishActive announces that this thread runs a transaction that began at
// ts.
func (t *Thread) PublishActive(ts uint64) {
	t.pubSeq.Add(1)
	t.pub.Store(ts<<1 | 1)
}

// BeginSeq returns the publication sequence number: it changes between any
// two distinct transactions of this thread, even ones sharing a begin
// timestamp. The stall watchdog keys blocker identity on it.
func (t *Thread) BeginSeq() uint64 { return t.pubSeq.Load() }

// PublishInactive announces that this thread has no live transaction. It is
// the universal transaction-end path — every engine's commit runs it last,
// and so does Thread.abort — so it also takes the transaction off the
// active tracker if it is on it: a visible transaction, or one pinned there
// by its weak reads (unblocking reclamation). No transaction therefore
// leaves the tracker before its commit or cleanup is complete (§II-C).
func (t *Thread) PublishInactive() {
	if t.Visible || t.EpochPinned {
		t.RT.Active.Leave(t)
		t.Visible, t.EpochPinned = false, false
	}
	t.pub.Store(0)
}

// Published returns the announced state: begin timestamp and liveness.
func (t *Thread) Published() (beginTS uint64, active bool) {
	v := t.pub.Load()
	return v >> 1, v&1 == 1
}

// setValidated publishes a successful validation at clock time ts.
func (t *Thread) setValidated(ts uint64) { t.lastValidated.Store(ts) }

// ValidatedAt returns the clock time of the last published validation.
func (t *Thread) ValidatedAt() uint64 { return t.lastValidated.Load() }

// ResetTxnState clears per-transaction logs and flags. Engines call it from
// Begin.
func (t *Thread) ResetTxnState() {
	t.Reads.Reset()
	t.Undo.Reset()
	t.Redo.Reset()
	t.Acq.Reset()
	t.Wrote = false
	t.Visible = false
	t.ExtendOK = false
	t.VisPub.Reset()
	t.memoOrec = nil
	t.Sem.Reset()
	t.txnAllocCur = 0 // leftovers from an aborted attempt are re-handed out
	t.commitRetires = t.commitRetires[:0]
}

// StartSnapshot records ts as the transaction's begin time and initializes
// the validity interval to the degenerate [ts, ts]. Engines call it from
// Begin after sampling the clock (or entering the tracker).
func (t *Thread) StartSnapshot(ts uint64) {
	t.BeginTS = ts
	t.ValidTS = ts
	t.LastClockSeen = ts
}

// commitTS ticks the global clock and returns the result as the write
// timestamp of a committing writer that has already acquired its entire
// write set. Acquire-before-tick is what makes the timestamp safe to
// publish: the writer owns every orec it will release at wts from before
// the clock could read wts, so a reader whose snapshot covers wts either
// sees the ownership (and defers) or sees the fully committed state
// (CORRECTNESS.md §13). The result is also recorded in LastCommitTS.
func (t *Thread) commitTS() uint64 {
	t.Stats.ClockTicks++
	wts := t.RT.Clock.Tick()
	t.LastCommitTS = wts
	return wts
}

// ReaderMayBeLive reports whether the transaction that published a read at
// timestamp rts under thread id tid may still be incomplete. A reader's
// published rts is always ≥ its begin timestamp, so if thread tid is
// currently inactive, or its live transaction began after rts, the reader
// that wrote the hint has certainly finished (§II-E's liveness test).
func (rt *Runtime) ReaderMayBeLive(tid, rts uint64) bool {
	u := rt.ThreadByID(tid)
	if u == nil {
		return false // hint from an unregistered id: treat as dead
	}
	begin, active := u.Published()
	return active && begin <= rts
}

// ValidateReads re-runs the consistency test over the whole read set: each
// logged orec must be unowned (or owned by this transaction) and must
// still carry the write timestamp observed at read time. An orec's unowned
// timestamp strictly increases with every ownership episode (a commit
// releases at its commit tick, an abort at a fresh tick), so "wts ≤
// logged" is exactly "not acquired since my read", which stays sound after
// the snapshot has been extended past BeginTS. It is the commit-time
// validation of the redo/undo engines and the body of the incremental
// validation used by the §IV systems.
func (t *Thread) ValidateReads() bool {
	n := t.Reads.Len()
	for i := 0; i < n; i++ {
		e := t.Reads.At(i)
		v := e.Orec.Owner().Load()
		if orec.IsOwned(v) {
			if orec.OwnerTID(v) != t.ID {
				return false
			}
			continue
		}
		if orec.WTS(v) > e.WTS {
			return false
		}
	}
	return true
}

// ValidateBeforeUse is the sandbox checkpoint of the Machens
// validate-before-dangerous-operation discipline (PAPERS.md, "Sandboxing
// for Software Transactional Memory with Deferred Updates"): call it
// immediately before an operation whose *inputs* derive from
// transactionally-read data and whose failure mode is worse than a wrong
// value — a division whose divisor could be a torn zero, an indirect load
// through a txn-read pointer that could now be reclaimed or poisoned. A
// doomed transaction fails the validation and aborts (retries) here,
// before the dangerous operation executes; a consistent transaction pays
// one O(R) read-set pass and proceeds.
//
// The full ValidateReads pass is required — a cheap commit-signal "has any
// writer committed?" test is NOT a sound substitute for the in-place
// (undo-log) engines, whose rivals invalidate a read set by acquiring
// orecs and writing in place without moving the clock or the ordering
// counters.
func (t *Thread) ValidateBeforeUse() {
	t.Stats.SandboxValidations++
	if !t.ValidateReads() {
		t.ConflictAbort()
	}
}

// CheckAddr sandbox-checks a heap address that is about to be
// dereferenced. In-range addresses pass with one comparison. An
// out-of-range address means the value it was computed from was torn: the
// transaction validates, so a doomed attempt aborts and retries before any
// wild access, while a consistent transaction — whose address really is
// garbage, an application bug — propagates a descriptive panic (core.Run's
// sandbox re-validates and lets it through).
func (t *Thread) CheckAddr(a heap.Addr) {
	if !t.RT.Heap.Contains(a) {
		t.wildAddr(a) // outlined so the in-range check inlines into every read
	}
}

func (t *Thread) wildAddr(a heap.Addr) {
	t.ValidateBeforeUse()
	panic(fmt.Sprintf("stm: wild heap address %d (heap cap %d words) in a consistent transaction", a, t.RT.Heap.Size()))
}

// RetireStamp returns the timestamp to stamp a retired extent with: no
// lower than this thread's latest commit. The unlink that freed the extent
// committed at LastCommitTS; any transaction beginning at or after the
// stamp therefore observes the unlink, which is exactly what the
// reclaimer's epoch check needs (internal/reclaim, CORRECTNESS.md §14).
func (t *Thread) RetireStamp() uint64 {
	s := t.RT.Clock.Now()
	if t.LastCommitTS > s {
		s = t.LastCommitTS
	}
	return s
}

// Retire hands the n-word extent at a to the runtime's epoch-based
// reclaimer, stamped with RetireStamp. Call it only after the transaction
// that unlinked the extent has committed (outside any Atomic body). The
// extent rides this thread's owner-only front (reclaim.RetireLocal) — a
// plain append on the fast path, publishing to the shared limbo shard in
// batches — so FlushReclaim must run before cross-thread accounting
// (Drain/Stats) can see the most recent retires.
func (t *Thread) Retire(a heap.Addr, n int) {
	t.Rl.Retire(a, n, t.RetireStamp())
}

// AllocReused returns an n-word extent recycled through the reclaimer's
// epoch, if one is available to this thread; words are NOT zeroed (the
// caller initializes the node before publishing it, as with malloc).
// Returns false when the caller should allocate from the heap instead.
func (t *Thread) AllocReused(n int) (heap.Addr, bool) {
	return t.Rl.Alloc(n)
}

// FlushReclaim publishes this thread's buffered retires and prefetched free
// extents to its reclaim shard. Call when the thread finishes working (or
// from a point that provably happens after it stopped).
func (t *Thread) FlushReclaim() {
	t.Rl.Flush()
}

// TryExtend attempts a snapshot extension (the classic timestamp-extension
// move of lazy-snapshot STMs): sample the clock, revalidate the whole read
// set, and on success raise ValidTS to the sampled time. Ordering matters —
// the clock is sampled first, so any commit the validation could have
// missed carries a write timestamp greater than the new bound. Returns
// false (leaving the snapshot untouched) if the engine opted out, nothing
// has committed since the current bound, or validation fails.
func (t *Thread) TryExtend() bool {
	if !t.ExtendOK {
		return false
	}
	c := t.RT.Clock.Now()
	if c == t.ValidTS {
		return false
	}
	t.Stats.Validations++
	if !t.ValidateReads() {
		return false
	}
	t.ValidTS = c
	t.LastClockSeen = c
	t.Stats.Extensions++
	// Drop the read memo across the extension: it keeps the memo's lifetime
	// argument local to "one validity interval" (CORRECTNESS.md §10).
	t.forgetVisibility()
	t.setValidated(c)
	return true
}

// pollValidate is the incremental-validation hook of the polling policies
// (Ord, Val, and pvrWriterOnly and pvrHybrid while invisible): whenever the
// global clock has moved since the last check — some writer committed, or
// aborted after acquiring — the full read set is revalidated before the
// transaction consumes any further values. This is the Microsoft system's incremental validation /
// RingSTM's commit-counter polling, and it is what catches doomed
// transactions before they act on state mutated nontransactionally by a
// privatizer (§IV).
//
// On the engines that set ExtendOK the successful validation doubles as a
// timestamp extension: one O(R) pass per observed clock value both proves
// the transaction is not doomed and moves its validity bound forward, so a
// transaction whose read set is untouched stops aborting on (and stops
// revalidating for) commits that do not conflict with it.
func (t *Thread) pollValidate() {
	c := t.RT.Clock.Now()
	if c == t.LastClockSeen {
		return
	}
	t.Stats.Validations++
	if !t.ValidateReads() {
		t.ConflictAbort()
	}
	t.LastClockSeen = c
	if t.ExtendOK && c > t.ValidTS {
		t.ValidTS = c
		t.Stats.Extensions++
		t.forgetVisibility() // conservative, as in TryExtend
	}
	t.setValidated(c)
}

// forgetVisibility clears the same-block read memo, so the next read of
// every block runs the full protocol again. The snapshot-extension paths
// call it, and so do the engines' invisible → visible transitions (the
// reads logged so far were never made visible).
func (t *Thread) forgetVisibility() { t.memoOrec = nil }

// readMemo is the same-block fast path: o is the block this transaction
// last read successfully and v, its owner word loaded just now, is the word
// that read was consistent with. Everything the full protocol would add is
// already in place and stable — the (o, wts) read-log entry (a re-Add
// would only log a duplicate) and, on the visible paths, this transaction's
// visibility on o (MakeVisible could only skip) — so what is left is the
// consistent read itself: load the word and confirm the owner word did not
// move under it. ok is false when it did; the caller falls back to the full
// protocol.
func (t *Thread) readMemo(o *orec.Orec, a heap.Addr, v uint64) (w heap.Word, ok bool) {
	if o != t.memoOrec || v != t.memoOwner {
		return 0, false
	}
	w = t.RT.Heap.AtomicLoad(a)
	return w, o.Owner().Load() == v
}

// remember arms the same-block memo after a successful read of o that was
// consistent with owner word v.
func (t *Thread) remember(o *orec.Orec, v uint64) {
	if !t.noMemo {
		t.memoOrec, t.memoOwner = o, v
	}
}

// readHeapConsistent performs the full consistent-read dance against
// location a: pre-check the orec, load the word, post-check that the orec
// did not change in the interim (the standard race guard for in-place
// writers), and log the read. Engines layer visibility and redo-lookup
// around it. A word newer than the validity bound triggers a snapshot
// extension attempt instead of an unconditional abort. A second load of the
// block just read takes the memo path and logs nothing.
func (t *Thread) readHeapConsistent(a heap.Addr) heap.Word {
	// Sandbox bounds guard: an address computed from torn reads aborts the
	// doomed attempt here instead of faulting into Run's recover.
	t.CheckAddr(a)
	o := t.RT.Orecs.For(a)
	v := o.Owner().Load()
	if w, ok := t.readMemo(o, a, v); ok {
		return w
	}
	return t.readConsistent(o, a, v)
}

// readVisible is the partially visible read of the PVR engines and of the
// hybrid's visible mode: publish (or confirm) this transaction's visibility
// on a's orec, then do the timestamp-checked consistent read. Each thing is
// done once per read — one bounds check, one hash, one owner load ahead of
// the visibility step that also serves as the consistent read's pre-check —
// and a second load of the block just read does none of it (readMemo),
// counted as a skipped visibility update so Figure 4's percentages keep
// their meaning.
//
// The common first read of a block makes no call: an unowned orec whose
// hint already covers this transaction (rts ≥ BeginTS, and the multi bit
// set or the hint our own) is MakeVisible's first skip case, and a word
// no newer than ValidTS is readConsistent's first round, with the same
// failpoints in the same order. Every other case — a hint to publish or
// share, an owned orec, a word past ValidTS, a post-check that moved —
// goes through MakeVisible or readConsistent unchanged.
func (t *Thread) readVisible(a heap.Addr, useGrace bool) heap.Word {
	t.CheckAddr(a)
	o := t.RT.Orecs.For(a)
	v := o.Owner().Load()
	if w, ok := t.readMemo(o, a, v); ok {
		t.Stats.PVReads++
		t.Stats.PVSkipped++
		return w
	}
	if orec.IsOwned(v) {
		// Reading our own in-place write needs no visibility hint:
		// ownership already blocks every other reader and writer.
		if orec.OwnerTID(v) != t.ID {
			t.MakeVisible(o, useGrace)
		}
		return t.readConsistent(o, a, v)
	}
	rts, tid, multi := orec.UnpackVis(o.Vis().Load())
	if covered := rts >= t.BeginTS && (multi || tid == t.ID); !covered {
		t.MakeVisible(o, useGrace)
		return t.readConsistent(o, a, v)
	}
	t.Stats.PVReads++
	t.Stats.PVSkipped++
	wts := orec.WTS(v)
	if wts > t.ValidTS {
		return t.readConsistent(o, a, v)
	}
	failpoint.Eval(failpoint.ReadBeforeLoad)
	w := t.RT.Heap.AtomicLoad(a)
	failpoint.Eval(failpoint.ReadBeforePostcheck)
	if o.Owner().Load() != v {
		return t.readConsistent(o, a, o.Owner().Load())
	}
	t.Reads.Add(o, a, wts)
	t.remember(o, v)
	return w
}

// readConsistent is the consistent read of a under o; v1 is o's owner word
// as the caller just loaded it (the pre-check of the first round).
func (t *Thread) readConsistent(o *orec.Orec, a heap.Addr, v1 uint64) heap.Word {
	//stmlint:ignore yieldsite obstruction-free double-check: the loop repeats only when a rival changed the orec (then we abort or extend) — it retries on interference, not on stillness, so it cannot spin while the world is idle
	for {
		if orec.IsOwned(v1) {
			if orec.OwnerTID(v1) == t.ID {
				// Reading my own in-place write.
				t.Reads.Add(o, a, t.BeginTS)
				t.remember(o, v1)
				return t.RT.Heap.AtomicLoad(a)
			}
			t.ConflictAbort()
		}
		wts := orec.WTS(v1)
		if wts > t.ValidTS {
			if !t.TryExtend() {
				t.ConflictAbort()
			}
		} else {
			failpoint.Eval(failpoint.ReadBeforeLoad)
			w := t.RT.Heap.AtomicLoad(a)
			failpoint.Eval(failpoint.ReadBeforePostcheck)
			if o.Owner().Load() == v1 {
				t.Reads.Add(o, a, wts)
				t.remember(o, v1)
				return w
			}
		}
		// The bound was raised or the orec changed under us: re-examine it.
		v1 = o.Owner().Load()
	}
}
