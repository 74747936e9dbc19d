// Package reclaim implements epoch-based safe memory reclamation for the
// transactional heap, closing the reuse half of the doomed-transaction
// problem (PAPERS.md: Machens/Turau, "Sandboxing for Software Transactional
// Memory with Deferred Updates"; CORRECTNESS.md §14).
//
// The hazard: a transaction T with begin timestamp B can consistently read
// a pointer to node X, then a writer W commits at R > B, unlinking X and
// freeing it. T is not doomed — its snapshot legitimately contains the
// pre-unlink state — yet it holds X's address. If X's words are reused
// *nontransactionally* (a plain write to freshly allocated memory touches
// no orec), T's validation cannot detect the reuse and T consumes torn
// data. The fix is an epoch rule: X may be physically reused only once no
// incomplete transaction began before R, because every transaction that
// begins at or after R sees the unlink (W's commit is ordered before its
// begin snapshot) and can never load X's address transactionally again.
//
// The epoch is exactly the oldest-begin watermark the incomplete-
// transaction tracker (txnlist.Slots and friends) already maintains for
// the privatization fences: Retire stamps each freed extent with the
// unlinking transaction's commit timestamp into a per-thread limbo list,
// and a collection pass — amortized every CollectEvery retires, or forced
// with Drain — returns an extent to the heap free list only when the
// watermark proves oldestBegin ≥ stamp (or nothing is in flight). The
// watermark is a *lower bound* on the true oldest begin, which is the safe
// direction here exactly as it is for fences: an undershooting bound can
// only delay reclamation, never release an extent a live transaction could
// still reach.
//
// Building with -tags privstm_reclaim_race (epoch_race.go) removes the
// epoch check — every retired extent is freed immediately — as a positive
// control: the schedule explorer must catch the resulting use-after-reclaim
// (internal/sched's PoisonOracle, make explore-reclaim).
package reclaim

import (
	"sync/atomic"

	"privstm/internal/failpoint"
	"privstm/internal/heap"
	"privstm/internal/spin"
)

// Poison is the sentinel written over every quarantined word when
// Config.Poison is set. The value is chosen to be a wildly out-of-range
// heap address and an implausible payload, so any computation that consumes
// it fails loudly (and the explorer's PoisonOracle can recognize it).
const Poison heap.Word = 0xDEADDEADDEADDEAD

// DefaultCollectEvery is the amortization period: one collection pass per
// this many retires on a shard. It must exceed localBatch or every batch
// publication pays a collection pass (and its watermark sample); at 4×
// the batch, three of four publishes are pure appends.
const DefaultCollectEvery = 64

// maxClass is the largest extent size (words) kept on the classed per-shard
// ready stacks; it matches the heap free list's exact-fit classes. Larger
// extents go straight to the heap free list at collect time.
const maxClass = 16

// localBatch sizes the owner-only fronts: retires publish to the shard in
// batches of this many, and allocation refills prefetch this many cleared
// extents per shard-lock acquisition. The batch is what makes the
// steady-state node cycle cost plain slice traffic instead of two lock
// round-trips per operation (see Local); it also amortizes publish's
// per-batch watermark sample. The price of a bigger batch is quarantine
// width: up to localBatch retired-but-unpublished extents per thread are
// invisible to Drain until the owner flushes.
const localBatch = 32

// Config configures a Reclaimer.
type Config struct {
	// Threads is the number of per-thread limbo shards; Retire's tid must
	// be < Threads. Minimum 1.
	Threads int
	// CollectEvery is the number of retires on one shard between amortized
	// collection passes (0 ⇒ DefaultCollectEvery).
	CollectEvery int
	// Poison overwrites an extent's words with the Poison sentinel at
	// *collect* time, the moment the epoch check releases it. Debug mode:
	// it turns a silent use-after-reclaim into a loud one and feeds the
	// explorer's poisoned-memory oracle (sched.PoisonOracle). Poisoning at
	// retire time would itself be the bug this package prevents: during
	// quarantine an old-snapshot reader may still legitimately load the
	// words (the unlink never modified the payload, and a plain sentinel
	// store would bypass its orec-based validation), so the sentinel may
	// land only where the epoch proves no incomplete transaction can look.
	Poison bool
}

// Stats is an aggregate snapshot of the reclaimer's counters. Extents
// buffered in owner-only fronts (RetireLocal/AllocLocal) are invisible
// until the owner thread publishes a batch or calls Flush — and the
// fronts' counter deltas (retires/collects/freed from direct-clearing
// publishes) are invisible until Flush, which folds them into the shard.
type Stats struct {
	Retires  uint64 // extents published to shard limbo lists
	Collects uint64 // collection passes executed (amortized + drains)
	Freed    uint64 // extents the epoch check has cleared for reuse
	Limbo    uint64 // extents currently quarantined
}

// extent is one retired run of words awaiting its epoch.
type extent struct {
	addr  heap.Addr
	n     uint32
	stamp uint64
}

// shard is one thread's limbo list. Shards are lock-protected (not
// lock-free): the owner thread is the only frequent visitor, so the spin
// lock is uncontended on the fast path, while still letting Drain and
// Stats walk foreign shards safely.
type shard struct {
	mu           spin.Mutex
	limbo        []extent
	sinceCollect int
	// ready holds epoch-cleared extents by exact word size, awaiting reuse
	// (AllocLocal refills from here; Drain returns the stock to the heap
	// free list).
	ready [maxClass + 1][]heap.Addr
	// Counters are atomics, not lock-protected fields, so a publish whose
	// whole batch direct-clears can account for itself without touching
	// the shard lock at all (Stats reads them lock-free too).
	retires  atomic.Uint64
	collects atomic.Uint64
	freed    atomic.Uint64
	_        [8]uint64 // pad: shards of different threads must not false-share
}

// Local is the owner-only half of a thread's reclamation state: Retire
// buffers retires here and Alloc serves reuse from here, both with plain
// (unlocked) slice operations, publishing to / refilling from the locked
// shard only every localBatch operations. A Local is touched exclusively
// by its owner thread — Drain and Stats never look at it — so the owner's
// batch boundary is the only synchronization it needs (Flush hands its
// contents to the shard when the thread finishes).
//
// Retire and Alloc are deliberately thin — append/pop plus a length check,
// with everything batch-boundary outlined into publish/allocSlow — so the
// compiler inlines the per-node fast path into the STM thread's call sites
// (these run once per node in the workloads' steady state; the paired
// overhead sweep in EXPERIMENTS.md is the budget they must fit).
type Local struct {
	pending []extent    // retired, stamped, not yet published to the shard
	ready   []heap.Addr // prefetched epoch-cleared extents, readyWords each
	// readyWords is the word size the ready cache currently serves; the
	// workloads allocate one node size each, so a single class suffices.
	readyWords int
	// missBackoff suppresses refill attempts (which take the shard lock)
	// for a few allocations after a refill came back empty, so alloc-heavy
	// growth phases don't pay a lock round-trip per node.
	missBackoff int
	// spill stages direct-cleared extents that don't fit the ready cache
	// (wrong class, or over readyCap) between publish's partition loop and
	// its single lock acquisition.
	spill []extent
	// Owner-local counter deltas, folded into the shard's atomics by Flush.
	// Plain fields: an atomic RMW costs ~10× a plain add, and publish runs
	// them once per batch — keeping them local is what lets a fully-cleared
	// publish touch no shared memory at all. Until Flush, Stats does not see
	// them (the same visibility contract as the extents themselves).
	retires  uint64
	collects uint64
	freed    uint64
	r        *Reclaimer
	s        *shard    // this Local's shard (same index in r.shards)
	_        [8]uint64 // pad: Locals of different threads must not false-share
}

// readyCap bounds the owner-local ready cache; direct-cleared extents
// beyond it spill to the shard stock so a retire-heavy phase can't grow
// the cache without bound.
const readyCap = 4 * localBatch

// Retire quarantines the n-word extent at a, stamped with stamp, through
// the owner thread's front: a plain append, publishing to the shard (with
// the amortized collection pass) once localBatch retires accumulate.
func (l *Local) Retire(a heap.Addr, n int, stamp uint64) {
	failpoint.Eval(failpoint.ReclaimRetire)
	l.pending = append(l.pending, extent{addr: a, n: uint32(n), stamp: stamp})
	if len(l.pending) >= localBatch {
		l.publish()
	}
}

// Alloc returns an n-word epoch-cleared extent from the owner thread's
// front, if one is available; ok is false when the caller should fall back
// to the heap. The returned words are NOT zeroed: they hold whatever the
// extent's last life (or the poison sentinel) left behind, like a malloc'd
// block; callers must fully initialize a node before publishing it.
func (l *Local) Alloc(n int) (heap.Addr, bool) {
	if k := len(l.ready) - 1; k >= 0 && l.readyWords == n {
		a := l.ready[k]
		l.ready = l.ready[:k]
		return a, true
	}
	return l.allocSlow(n)
}

// publish drains the front's pending retires. It samples the watermark
// once and partitions the batch: extents the epoch already covers clear
// directly — into the owner-local ready cache when they fit, the shard
// stock otherwise — and only still-quarantined extents visit the shared
// limbo list. Sampling before any move is the same one-shot check a
// collection pass makes, so this is a collection pass that happens to run
// at the producer: a transaction beginning after the sample observes the
// unlink (its begin ≥ stamp) and can never reach the extent. In the
// quiescent steady state the whole batch clears into the ready cache and
// the shard lock is never taken — retire→reuse becomes pure owner-local
// slice traffic (the counters are atomics for exactly this reason).
func (l *Local) publish() {
	total := len(l.pending)
	if total == 0 {
		return
	}
	oldestBegin, anyActive := l.r.oldest()
	adopt := l.readyWords == 0 && len(l.ready) == 0
	kept := l.pending[:0]
	var cleared uint64
	for _, e := range l.pending {
		if !canFree(e.stamp, oldestBegin, anyActive) {
			kept = append(kept, e)
			continue
		}
		failpoint.Eval(failpoint.ReclaimCollect)
		if l.r.poison {
			// Atomic stores: the sentinel may still race the *loads* of a
			// doomed transaction whose reads will never validate; the values
			// it sees are garbage either way, but the stores must be
			// race-clean.
			for i := 0; i < int(e.n); i++ {
				l.r.h.AtomicStore(e.addr+heap.Addr(i), Poison)
			}
		}
		cleared++
		if adopt {
			// First traffic on this front: serve the class it retires.
			l.readyWords, adopt = int(e.n), false
		}
		if int(e.n) == l.readyWords && len(l.ready) < readyCap {
			l.ready = append(l.ready, e.addr)
		} else {
			l.spill = append(l.spill, e)
		}
	}
	l.retires += uint64(total)
	l.collects++
	l.freed += cleared
	if len(kept) > 0 || len(l.spill) > 0 {
		s := l.s
		s.mu.Lock()
		s.limbo = append(s.limbo, kept...)
		s.sinceCollect += len(kept)
		for _, e := range l.spill {
			if int(e.n) <= maxClass {
				s.ready[e.n] = append(s.ready[e.n], e.addr)
			} else {
				l.r.h.Free(e.addr, int(e.n))
			}
		}
		if s.sinceCollect >= l.r.collectEvery {
			s.sinceCollect = 0
			l.r.collectLocked(s)
		}
		s.mu.Unlock()
		l.spill = l.spill[:0]
	}
	l.pending = l.pending[:0]
}

// allocSlow is Alloc's refill path: hand back a stale cache on a size
// switch, convert any pending retires whose epoch has arrived (publish
// direct-clears into the ready cache without the shard lock), then pull up
// to localBatch cleared extents of the wanted size from the shard's ready
// stock (collecting on demand if the stock is bare but limbo is not).
func (l *Local) allocSlow(n int) (heap.Addr, bool) {
	if l.readyWords != n && len(l.ready) > 0 {
		// The thread switched node sizes: hand the stale cache back to the
		// shard so the stock is not stranded on a class nobody allocates.
		l.returnReady()
	}
	if n > maxClass || n <= 0 {
		return heap.Nil, false
	}
	l.readyWords = n
	if len(l.pending) >= localBatch/4 {
		// Publishing fewer would pay the watermark sample for a handful of
		// extents; below the threshold the heap's bump pointer absorbs the
		// jitter until the batch fills (the extra extents re-enter
		// circulation at the next publish, so nothing leaks).
		l.publish()
		if k := len(l.ready); k > 0 {
			a := l.ready[k-1]
			l.ready = l.ready[:k-1]
			return a, true
		}
	}
	if l.missBackoff > 0 {
		l.missBackoff--
		return heap.Nil, false
	}
	s := l.s
	s.mu.Lock()
	if len(s.ready[n]) == 0 && len(s.limbo) > 0 {
		// Nothing stocked: see whether quarantined extents have cleared.
		s.sinceCollect = 0
		l.r.collectLocked(s)
	}
	stack := s.ready[n]
	b := localBatch
	if len(stack) < b {
		b = len(stack)
	}
	l.ready = append(l.ready, stack[len(stack)-b:]...)
	s.ready[n] = stack[:len(stack)-b]
	s.mu.Unlock()
	if k := len(l.ready); k > 0 {
		a := l.ready[k-1]
		l.ready = l.ready[:k-1]
		return a, true
	}
	// Empty refill: skip the lock for the next batch of allocations so a
	// pure growth phase stays on the heap's bump path.
	l.missBackoff = localBatch
	return heap.Nil, false
}

// returnReady hands the front's prefetched extents back to its shard's
// ready stock (size-switch and Flush paths).
func (l *Local) returnReady() {
	if len(l.ready) == 0 {
		return
	}
	s := l.s
	s.mu.Lock()
	s.ready[l.readyWords] = append(s.ready[l.readyWords], l.ready...)
	s.mu.Unlock()
	l.ready = l.ready[:0]
}

// Flush publishes everything buffered in the front — pending retires to
// the shard's limbo, prefetched ready extents back to the shard's stock —
// and resets the refill backoff. Call from the owner thread when it
// finishes (or after it has provably stopped) so Drain and Stats see the
// thread's full state.
func (l *Local) Flush() {
	l.publish()
	l.returnReady()
	l.missBackoff = 0
	l.s.retires.Add(l.retires)
	l.s.collects.Add(l.collects)
	l.s.freed.Add(l.freed)
	l.retires, l.collects, l.freed = 0, 0, 0
}

// Reclaimer defers physical reuse of freed heap extents until the
// oldest-begin watermark proves no incomplete transaction can reach them.
// Methods are safe for concurrent use; Retire(tid, ...) additionally
// assumes at most one goroutine uses each tid at a time (the STM's
// one-thread-one-descriptor rule).
type Reclaimer struct {
	h *heap.Heap
	// oldest is the epoch source: a lower bound on the begin timestamp of
	// the oldest incomplete transaction, and whether any is in flight —
	// the contract of txnlist.Slots.OldestBegin (core.SlotTracker).
	oldest       func() (uint64, bool)
	collectEvery int
	poison       bool
	shards       []shard
	fronts       []Local
}

// New builds a Reclaimer returning extents to h, with oldest as the
// watermark source.
func New(h *heap.Heap, oldest func() (uint64, bool), cfg Config) *Reclaimer {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.CollectEvery <= 0 {
		cfg.CollectEvery = DefaultCollectEvery
	}
	r := &Reclaimer{
		h:            h,
		oldest:       oldest,
		collectEvery: cfg.CollectEvery,
		poison:       cfg.Poison,
		shards:       make([]shard, cfg.Threads),
		fronts:       make([]Local, cfg.Threads),
	}
	for i := range r.fronts {
		r.fronts[i].r = r
		r.fronts[i].s = &r.shards[i]
	}
	return r
}

// Local returns thread tid's owner-only front. The STM thread caches the
// pointer at creation so the per-node Retire/Alloc fast paths are direct
// (inlinable) method calls with no index arithmetic.
func (r *Reclaimer) Local(tid int) *Local { return &r.fronts[r.clamp(tid)] }

// clamp normalizes an out-of-range tid to shard 0. The single unsigned
// compare keeps the per-retire fast path free of the integer divide a
// tid%len(shards) would cost (RetireLocal and AllocLocal run once per node
// in the workloads' steady state).
func (r *Reclaimer) clamp(tid int) int {
	if uint(tid) >= uint(len(r.shards)) {
		return 0
	}
	return tid
}

// Retire quarantines the n-word extent at a, stamped with stamp, on thread
// tid's limbo list. stamp must be ≥ the commit timestamp of the
// transaction that unlinked the extent (the watermark comparison is
// against it); callers obtain it from Thread.RetireStamp. Every
// CollectEvery retires the shard runs an amortized collection pass.
//
// The steady-state fast path performs no allocation: the limbo slice and
// the heap free list both retain their capacity across collect/reuse
// cycles (pinned by TestRetireSteadyStateAllocates0).
func (r *Reclaimer) Retire(tid int, a heap.Addr, n int, stamp uint64) {
	failpoint.Eval(failpoint.ReclaimRetire)
	s := &r.shards[r.clamp(tid)]
	s.mu.Lock()
	s.limbo = append(s.limbo, extent{addr: a, n: uint32(n), stamp: stamp})
	s.retires.Add(1)
	s.sinceCollect++
	if s.sinceCollect >= r.collectEvery {
		s.sinceCollect = 0
		r.collectLocked(s)
	}
	s.mu.Unlock()
}

// collectLocked runs one collection pass over s (s.mu held): sample the
// watermark once, clear every extent whose stamp the epoch covers, and
// compact the survivors in place (no allocation). Cleared extents of
// classable size stock the shard's ready stacks for AllocLocal; oversized
// ones go straight to the heap free list.
func (r *Reclaimer) collectLocked(s *shard) {
	// An empty shard is a no-op, not a collection: threads that never
	// retire (or a final drain over already-clean shards) report 0 passes.
	if len(s.limbo) == 0 {
		return
	}
	s.collects.Add(1)
	oldestBegin, anyActive := r.oldest()
	kept := s.limbo[:0]
	for _, e := range s.limbo {
		if canFree(e.stamp, oldestBegin, anyActive) {
			failpoint.Eval(failpoint.ReclaimCollect)
			if r.poison {
				// Atomic stores: the sentinel may still race the *loads* of
				// a doomed transaction whose reads will never validate; the
				// values it sees are garbage either way, but the stores
				// must be race-clean.
				for i := 0; i < int(e.n); i++ {
					r.h.AtomicStore(e.addr+heap.Addr(i), Poison)
				}
			}
			if int(e.n) <= maxClass {
				s.ready[e.n] = append(s.ready[e.n], e.addr)
			} else {
				r.h.Free(e.addr, int(e.n))
			}
			s.freed.Add(1)
		} else {
			kept = append(kept, e)
		}
	}
	s.limbo = kept
}

// Collect runs one collection pass over thread tid's shard and returns how
// many extents it freed.
func (r *Reclaimer) Collect(tid int) uint64 {
	s := &r.shards[r.clamp(tid)]
	s.mu.Lock()
	before := s.freed.Load()
	s.sinceCollect = 0
	r.collectLocked(s)
	freed := s.freed.Load() - before
	s.mu.Unlock()
	return freed
}

// Drain runs a collection pass over every shard and returns the shards'
// ready stocks to the heap free list (tests and end-of-run accounting).
// Extents whose epoch has not yet arrived remain quarantined; Drain returns
// the number of extents cleared by this call's collection passes. Extents
// buffered in per-thread fronts are NOT visible to Drain — each owner
// thread must Flush before the drain for full accounting.
func (r *Reclaimer) Drain() uint64 {
	var freed uint64
	for i := range r.shards {
		freed += r.Collect(i)
		s := &r.shards[i]
		s.mu.Lock()
		for n := 1; n <= maxClass; n++ {
			for _, a := range s.ready[n] {
				r.h.Free(a, n)
			}
			s.ready[n] = s.ready[n][:0]
		}
		s.mu.Unlock()
	}
	return freed
}

// RetireLocal is Local(tid).Retire: buffered on thread tid's owner-only
// front, published in localBatch batches. Callers must respect front
// ownership — at most one goroutine uses each tid, and Flush(tid) must run
// (from the owner, or after it provably finished) before Drain can see
// these extents.
func (r *Reclaimer) RetireLocal(tid int, a heap.Addr, n int, stamp uint64) {
	r.Local(tid).Retire(a, n, stamp)
}

// AllocLocal is Local(tid).Alloc: an n-word epoch-cleared extent from
// thread tid's front, refilling from the shard's ready stock (one lock
// round-trip per localBatch extents) when the front runs dry.
func (r *Reclaimer) AllocLocal(tid, n int) (heap.Addr, bool) {
	return r.Local(tid).Alloc(n)
}

// Flush is Local(tid).Flush: publish everything buffered in thread tid's
// front so Drain and Stats see the thread's full state.
func (r *Reclaimer) Flush(tid int) {
	r.Local(tid).Flush()
}

// Stats aggregates the per-shard counters.
func (r *Reclaimer) Stats() Stats {
	var st Stats
	for i := range r.shards {
		s := &r.shards[i]
		st.Retires += s.retires.Load()
		st.Collects += s.collects.Load()
		st.Freed += s.freed.Load()
		s.mu.Lock()
		st.Limbo += uint64(len(s.limbo))
		s.mu.Unlock()
	}
	return st
}
