package core

import (
	"sync/atomic"

	"privstm/internal/failpoint"
	"privstm/internal/heap"
	"privstm/internal/orec"
	"privstm/internal/spin"
)

// This file is the engine-side half of the semantic conflict layer used by
// internal/tds (CORRECTNESS.md §15). The idea is Proust/boosting layering:
// containers map each operation to an *abstract lock* — a stripe in a
// SemTable keyed by the operation's key or predicate — and the commit
// protocol acquires and validates those stripes alongside the word-level
// orecs. Two transactions that touch different keys of the same bucket list
// then share orecs but not stripes, and the stripe check (not the word
// check) decides whether they conflict: the container performs its
// traversals with unlogged weak reads (ReadWeak) that the word validator
// never sees, so structurally disjoint operations stop aborting each other.
//
// Commuting operations go one step further: a counter-shaped update
// (queue size, map size) is logged as a delta (SemAddDelta) and applied
// with one atomic add at commit, after bumping the counter's stripe — no
// word-level orec, no validation, counted in stats.SemanticSkips.
//
// Locking discipline: stripes are acquired only inside Commit, between
// SemPreCommit and SemPostCommit/SemAbortRelease, strictly after the
// word-level write set is acquired; acquisition never waits (a busy stripe
// fails the commit), so the global no-deadlock argument of the contention
// managers is untouched.

// SemTable is a table of abstract-lock stripes. Each stripe is one padded
// atomic word packed exactly like an orec owner word: even = version<<1
// (unowned), odd = tid<<1|1 (owned by a committing transaction). Versions
// are self-contained monotone counters — each release adds 2 — and never
// derived from the global clock.
//
// Containers choose their own key→stripe mapping; by convention stripe 0 is
// reserved for commuting counters and structural version bumps and is never
// write-acquired (an atomic +2 on an owned stripe would corrupt the owner
// tid).
type SemTable struct {
	id      uint32
	stripes []semStripe
	mask    uint32
}

// semStripe pads each stripe to a cache line so independent keys never
// false-share.
type semStripe struct {
	v atomic.Uint64
	_ [7]uint64
}

// semTableIDs hands every table a distinct id, mixed into the filter probe
// keys so stripes of different tables logged by one transaction scatter.
var semTableIDs atomic.Uint32

// NewSemTable creates a table with at least n stripes (rounded up to a
// power of two, minimum 2).
func NewSemTable(n int) *SemTable {
	size := 2
	for size < n {
		size *= 2
	}
	return &SemTable{
		id:      semTableIDs.Add(1),
		stripes: make([]semStripe, size),
		mask:    uint32(size - 1),
	}
}

// Len returns the stripe count (a power of two).
func (st *SemTable) Len() int { return len(st.stripes) }

// stripe returns stripe i's atomic word (index masked to the table).
func (st *SemTable) stripe(i uint32) *atomic.Uint64 { return &st.stripes[i&st.mask].v }

// key builds the filter probe key for stripe i.
func (st *SemTable) key(i uint32) uint32 { return st.id*0x85ebca6b ^ (i & st.mask) }

// semOwned packs the owned stripe word for thread tid.
func semOwned(tid uint64) uint64 { return tid<<1 | 1 }

// SemCommitter is the capability marker an engine implements to declare
// that its Commit runs the abstract-lock hooks (SemPreCommit /
// SemPostCommit / SemAbortRelease) at the documented points. The semantic
// containers (internal/tds) refuse to run on an engine without it: on such
// an engine the semantic log would be populated but never validated, which
// is silently unsound rather than merely slow.
type SemCommitter interface {
	SemanticCommitCapable()
}

// SemSample records a read-side sample of stripe i: the transaction's
// observations under that abstract lock are valid iff the stripe is
// unchanged at commit time. A stripe currently owned by a committing rival
// aborts immediately (stripes are held only for the short commit window;
// waiting here would reintroduce the lock-order deadlock the no-wait rule
// exists to prevent). A re-sample that observes a different version than
// the first also aborts: the first sample anchors the abstract snapshot.
func (t *Thread) SemSample(st *SemTable, i uint32) {
	s := st.stripe(i)
	v := s.Load()
	if v&1 != 0 {
		t.Stats.AbstractLockConflicts++
		t.ConflictAbort()
	}
	if !t.Sem.AddRead(st.key(i), s, v) {
		t.Stats.AbstractLockConflicts++
		t.ConflictAbort()
	}
}

// SemIntendWrite declares that the transaction semantically modifies the
// state guarded by stripe i: the commit will acquire the stripe, and its
// release will bump the version so every overlapping sampler revalidates.
func (t *Thread) SemIntendWrite(st *SemTable, i uint32) {
	t.Sem.AddWrite(st.key(i), st.stripe(i))
}

// SemAddDelta logs a commuting counter update: add d (two's complement for
// decrements) to the word at a, covered by stripe i. The word must be
// maintained *exclusively* through deltas — it is applied with an atomic
// add at commit and never write-acquired — and readers of the word must
// sample stripe i. Stripe i must be one of the never-acquired counter
// stripes (conventionally stripe 0).
func (t *Thread) SemAddDelta(st *SemTable, i uint32, a heap.Addr, d heap.Word) {
	t.Sem.AddDelta(st.stripe(i), a, d)
}

// SemPendingDelta returns the delta accumulated against the counter word at
// a so far this transaction (zero if none) — read-your-writes for SemAddDelta
// counters, whose updates otherwise land only at commit.
func (t *Thread) SemPendingDelta(a heap.Addr) heap.Word {
	return t.Sem.PendingDelta(a)
}

// SemPreCommit acquires the transaction's abstract locks and validates its
// stripe samples. Engines call it after the word-level write set is fully
// acquired and before the commit timestamp is taken (and re-check the
// samples after it: SemStillValid). It returns false —
// with every stripe it touched restored — if any stripe is busy or any
// sample went stale; the engine then aborts exactly as for a failed word
// validation. On success the stripes stay owned until SemPostCommit (the
// commit succeeded) or SemAbortRelease (a later commit step failed).
func (t *Thread) SemPreCommit() bool {
	sem := &t.Sem
	if sem.Empty() {
		return true
	}
	own := semOwned(t.ID)
	nw := sem.WritesLen()
	for i := 0; i < nw; i++ {
		w := sem.WriteAt(i)
		v := w.Stripe.Load()
		if v&1 != 0 || !w.Stripe.CompareAndSwap(v, own) {
			for j := 0; j < i; j++ {
				p := sem.WriteAt(j)
				p.Stripe.Store(p.Prev)
			}
			t.Stats.AbstractLockConflicts++
			return false
		}
		w.Prev = v
		failpoint.Eval(failpoint.SemAcquired)
	}
	if !t.semSamplesValid() {
		t.SemAbortRelease()
		t.Stats.AbstractLockConflicts++
		return false
	}
	failpoint.Eval(failpoint.SemValidated)
	return true
}

// semSamplesValid reports whether every sampled stripe still carries the
// word its sample observed — or is owned by this very commit, with that
// word as its pre-acquisition value.
func (t *Thread) semSamplesValid() bool {
	sem := &t.Sem
	own := semOwned(t.ID)
	nr := sem.ReadsLen()
	for i := 0; i < nr; i++ {
		r := sem.ReadAt(i)
		v := r.Stripe.Load()
		if v == r.Seen {
			continue
		}
		if v == own {
			// We own it: valid iff nothing committed between our sample and
			// our acquisition.
			if prev, ok := sem.PrevOf(r.Stripe); ok && prev == r.Seen {
				continue
			}
		}
		return false
	}
	return true
}

// SemStillValid re-checks the stripe samples once the commit timestamp is
// taken. Engines that take their timestamp after SemPreCommit and may then
// skip read validation (SkipCommitValidation) call it right after
// CommitTS, and fail the commit — SemAbortRelease plus their rollback —
// when it reports false. SemPreCommit's check alone leaves a window: a
// rival that write-acquires a stripe this transaction merely sampled (a
// privatizer taking a bucket stripe) after that check, ticks first and
// finds wts == ValidTS+1, commits without looking at the words this
// transaction owns, and both commits stand — this one then unlinks from,
// or inserts into, a chain the rival has privatized. Re-checking after
// our own tick closes it: a sample that still holds was acquired, if at
// all, after our tick, so the rival's timestamp is at least two past its
// snapshot and it must validate its reads against the orecs we own
// (CORRECTNESS.md §15).
func (t *Thread) SemStillValid() bool {
	if !semRevalidate || t.Sem.ReadsLen() == 0 || t.semSamplesValid() {
		return true
	}
	t.Stats.AbstractLockConflicts++
	return false
}

// SemPostCommit publishes the transaction's semantic effects. Engines call
// it on the success path *before* releasing (and, for redo engines, before
// writing back) the word-level write set: the stripe version bumps must be
// in place before any rival can observe the new data, so a sampler that
// reads a post-commit value is guaranteed to fail its stripe validation.
// Within the call the ordering is bump-then-apply for the same reason:
// delta stripes move before the counter words do.
func (t *Thread) SemPostCommit() {
	sem := &t.Sem
	if sem.Empty() {
		return
	}
	nw := sem.WritesLen()
	for i := 0; i < nw; i++ {
		failpoint.Eval(failpoint.SemRelease)
		w := sem.WriteAt(i)
		w.Stripe.Store(w.Prev + semReleaseBump)
	}
	nd := sem.DeltasLen()
	for i := 0; i < nd; i++ {
		failpoint.Eval(failpoint.SemRelease)
		sem.DeltaAt(i).Stripe.Add(2)
	}
	for i := 0; i < nd; i++ {
		d := sem.DeltaAt(i)
		t.RT.Heap.AtomicAdd(d.Addr, d.Delta)
	}
	t.Stats.SemanticSkips += uint64(nd)
}

// SemAbortRelease restores every acquired stripe to its pre-acquisition
// word. Engines call it when a commit step *after* a successful
// SemPreCommit fails (word validation, ordered-commit revalidation).
func (t *Thread) SemAbortRelease() {
	sem := &t.Sem
	nw := sem.WritesLen()
	for i := 0; i < nw; i++ {
		failpoint.Eval(failpoint.SemRelease)
		w := sem.WriteAt(i)
		w.Stripe.Store(w.Prev)
	}
}

// ReadWeak performs an unlogged read covered by an abstract lock: the word
// is loaded consistently (orec double-check, as in ReadHeapConsistent) but
// never enters the read set, so word-level validation ignores it — the
// stripe the container sampled is what certifies it at commit. The first
// weak read of a transaction pins the thread on the active tracker at its
// begin timestamp, which blocks epoch reclamation (internal/reclaim) from
// reusing any extent retired after the pin: a weak traversal can therefore
// dereference pointers it read moments ago without revalidating them. The
// pin is released on PublishInactive, the universal transaction-end path.
func (t *Thread) ReadWeak(a heap.Addr) heap.Word {
	t.CheckAddr(a)
	if w, ok := t.Redo.Get(a); ok {
		return w // read-your-writes for the buffered-update engines
	}
	if !t.Visible && !t.EpochPinned {
		// Pin BEFORE the load: the retire→collect ordering guarantees that
		// any extent still reachable through a word we are about to read was
		// retired after this registration is visible (CORRECTNESS.md §15).
		t.RT.Active.EnterAt(t, t.BeginTS)
		t.EpochPinned = true
	}
	t.Stats.WeakReads++
	o := t.RT.Orecs.For(a)
	//stmlint:ignore yieldsite obstruction-free double-check: the loop repeats only when a rival changed the orec mid-read — it retries on interference, not on stillness, so it cannot spin while the world is idle
	for {
		v1 := o.Owner().Load()
		if orec.IsOwned(v1) {
			if orec.OwnerTID(v1) == t.ID {
				return t.RT.Heap.AtomicLoad(a) // my own in-place write
			}
			t.ConflictAbort()
		}
		w := t.RT.Heap.AtomicLoad(a)
		if o.Owner().Load() == v1 {
			return w
		}
	}
}

// WeakQuiesce blocks until every transaction that began before this
// thread's latest commit has completed. It is the escape-hatch fence the
// semantic containers run after a privatizing commit (Map.PrivateSnapshot,
// Queue.DrainPrivate): weak readers are invisible to the engines'
// privatization fences (their reads are unlogged and publish no visibility
// hints), but every weak reader is pinned on the active tracker at its
// begin timestamp, so draining the tracker below LastCommitTS drains them
// too. Only transactions that began *before* the privatizing commit can
// hold pointers into the privatized extent (a later begin observes the
// unlink — see CORRECTNESS.md §15), so oldest ≥ LastCommitTS is exactly
// "no one left to wait for".
func (t *Thread) WeakQuiesce() {
	threshold := t.LastCommitTS
	var b spin.Backoff
	for {
		oldest, any := t.RT.Active.OldestBegin()
		if !any || oldest >= threshold {
			return
		}
		failpoint.Eval(failpoint.SemQuiesceWait)
		t.Stats.FenceSpins++
		b.Wait()
	}
}

// TxnExtent is one heap extent allocated inside a transaction.
type TxnExtent struct {
	Addr heap.Addr
	N    int
}

// MustAllocTxn allocates an n-word extent whose lifetime follows the
// transaction: if the attempt aborts, the extent is kept and re-handed to
// the retry's allocations (the common path — a retried insert allocates the
// same node shape), and any extent a committed attempt did not consume is
// retired through the epoch reclaimer. Words are NOT zeroed when an extent
// is re-handed across attempts; the caller initializes every word before
// publishing, as with the reclaimer's AllocReused.
func (t *Thread) MustAllocTxn(n int) heap.Addr {
	for t.txnAllocCur < len(t.TxnAllocs) {
		e := t.TxnAllocs[t.txnAllocCur]
		if e.N == n {
			t.txnAllocCur++
			return e.Addr
		}
		// Shape mismatch with the aborted attempt: retire the leftover and
		// try the next one.
		t.Rl.Retire(e.Addr, e.N, t.RetireStamp())
		t.TxnAllocs = append(t.TxnAllocs[:t.txnAllocCur], t.TxnAllocs[t.txnAllocCur+1:]...)
	}
	a, ok := t.AllocReused(n)
	if !ok {
		a = t.RT.Heap.MustAlloc(n)
	}
	t.TxnAllocs = append(t.TxnAllocs, TxnExtent{Addr: a, N: n})
	t.txnAllocCur++
	return a
}

// RetireOnCommit schedules the n-word extent at a for epoch retirement if
// and only if the running transaction commits (a container unlinking a node
// cannot retire it inline — the unlink might abort). FinishCommit applies
// the schedule; an abort simply drops it at the next Begin.
func (t *Thread) RetireOnCommit(a heap.Addr, n int) {
	t.commitRetires = append(t.commitRetires, TxnExtent{Addr: a, N: n})
}

// FinishCommit runs after an engine's Commit succeeds (core.Run calls it):
// transactional allocations that were consumed become permanent, leftovers
// from earlier aborted attempts are retired, and the RetireOnCommit
// schedule is applied — stamped at RetireStamp, which covers this very
// commit, exactly what the reclaimer's epoch check needs.
func (t *Thread) FinishCommit() {
	if len(t.TxnAllocs) > 0 {
		for _, e := range t.TxnAllocs[t.txnAllocCur:] {
			t.Rl.Retire(e.Addr, e.N, t.RetireStamp())
		}
		t.TxnAllocs = t.TxnAllocs[:0]
		t.txnAllocCur = 0
	}
	if len(t.commitRetires) > 0 {
		for _, e := range t.commitRetires {
			t.Rl.Retire(e.Addr, e.N, t.RetireStamp())
		}
		t.commitRetires = t.commitRetires[:0]
	}
}
