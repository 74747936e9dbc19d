// Package core is the STM: the runtime (heap, orec table, global clock,
// central transaction list, ordering lock), the per-thread transaction
// descriptor, the retry loop, read-set validation, the partial-visibility
// protocols of §II–III, and the privatization/validation fences.
//
// The paper's primary contribution — partially visible reads — lives here
// (visibility.go, fence.go). The eight systems evaluated in §V are Policy
// values (engine.go): one Begin, Read, Write and Commit, parameterised by
// the log discipline, when reads turn visible, grace periods, incremental
// validation, ticket order, and the post-commit fence.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"privstm/internal/clock"
	"privstm/internal/heap"
	"privstm/internal/orec"
	"privstm/internal/reclaim"
	"privstm/internal/stats"
	"privstm/internal/ticket"
	"privstm/internal/txnlist"
)

// DefaultMaxGrace is the grace-period cap from §III-A: 256 clock steps.
const DefaultMaxGrace = 256

// DefaultHybridThreshold is the number of logged reads beyond which
// pvrHybrid switches to partially visible reads (§IV: 16).
const DefaultHybridThreshold = 16

// Options configures a Runtime.
type Options struct {
	HeapWords  int // capacity of the simulated heap
	OrecCount  int // number of ownership records (rounded to a power of 2)
	BlockWords int // conflict-detection granularity and heap allocation quantum in words (0 ⇒ 2)
	MaxThreads int // maximum concurrently registered threads (1..txnlist.MaxSlots; 0 ⇒ 64)

	MaxGrace        uint64 // cap for adaptive grace periods (0 ⇒ DefaultMaxGrace)
	HybridThreshold int    // logged reads that flip pvrHybrid visible (0 ⇒ 16)

	// Tracker selects the incomplete-transaction tracker. The default,
	// TrackerSlot, is the O(1) cached-watermark slot array; TrackerList
	// restores the paper's §II-C spin-locked central list (ablations).
	Tracker TrackerKind
	// CapFenceAtCommit caps privatization-fence thresholds just below the
	// writer's commit time wts, eliminating the grace-period "extended
	// delays" of §III-A: the fence then waits for oldest-begin > wts−1,
	// i.e. for exactly the transactions that began before the commit's
	// tick. That is enough: a transaction whose begin timestamp is wts (or
	// later) sampled the clock after the writer's tick, and the writer
	// owns its whole write set from before the tick until it releases it
	// at wts — so such a reader finds each written block either owned (it
	// aborts or defers) or released at wts ≤ its own begin, the committed
	// state. It can neither have read a pre-commit value nor be doomed by
	// this commit, which is the same test WeakQuiesce applies (≥). Capping
	// at wts itself made an opted-in fence wait for begin > wts: for some
	// other thread to tick the clock, not for its readers.
	CapFenceAtCommit bool

	// MaxAttempts is the abort budget before a transaction escalates to
	// the serialized-irrevocable fallback: 0 means DefaultMaxAttempts,
	// negative disables escalation (the pre-robustness behaviour).
	MaxAttempts int
	// StallThreshold is the number of no-progress fence backoff rounds
	// before the stall watchdog fires: 0 means DefaultStallThreshold,
	// negative disables the watchdog.
	StallThreshold int
	// OnStall is invoked once per detected fence stall (default: a log
	// line). It runs on the fenced thread; keep it cheap and non-blocking.
	OnStall func(StallInfo)
}

func (o *Options) fill() {
	if o.HeapWords == 0 {
		o.HeapWords = 1 << 20
	}
	if o.OrecCount == 0 {
		o.OrecCount = 1 << 16
	}
	if o.BlockWords == 0 {
		// 16 bytes: malloc's quantum and the smallest node any container
		// here allocates. Larger, and neighbouring objects share an orec;
		// smaller, and every object pays for at least two.
		o.BlockWords = heap.DefaultQuantum
	}
	if o.MaxThreads == 0 {
		o.MaxThreads = 64
	}
	if o.MaxGrace == 0 {
		o.MaxGrace = DefaultMaxGrace
	}
	if o.HybridThreshold == 0 {
		o.HybridThreshold = DefaultHybridThreshold
	}
}

// Runtime is the shared state of one STM instance. All engines attached to
// a Runtime operate on the same heap, orec table and clock, so tests can
// compare engines on identical memory images (one engine at a time).
type Runtime struct {
	Heap   *heap.Heap
	Orecs  *orec.Table
	Clock  clock.Clock
	Active ActiveTracker // incomplete-transaction tracker (§II-C)
	Order  ticket.Lock   // strict-ordering ticket lock (§IV)

	// Reclaim is the epoch-based safe-reclamation subsystem: extents
	// retired through Thread.Retire are quarantined until the oldest-begin
	// watermark proves no incomplete transaction began before the retiring
	// commit, then returned to Heap's free list (CORRECTNESS.md §14).
	Reclaim *reclaim.Reclaimer

	MaxGrace         uint64
	HybridThreshold  int
	CapFenceAtCommit bool

	MaxAttempts    int
	StallThreshold int
	OnStall        func(StallInfo)

	// serialTok is the global irrevocability token of the serialized
	// fallback (cm.go).
	serialTok serialToken

	// threads is a fixed-size registry: slots are claimed with an atomic
	// counter and published with atomic stores, so registration may
	// safely race with visibility-liveness checks and validation fences
	// running on already-registered threads.
	threads []atomic.Pointer[Thread]
	nthread atomic.Int64

	// Thread lifecycle: ReleaseThread unpublishes a descriptor and parks
	// its registry slot ID on freeIDs for reuse by a later NewThread, so a
	// pool that churns workers does not exhaust the fixed-size registry.
	// The mutex also orders the descriptor hand-off: everything the old
	// owner did (including flushing its reclaim front) happens-before the
	// new owner's first use of the same slot ID. retired accumulates the
	// op counters of released descriptors so aggregate statistics survive
	// worker churn.
	lifeMu  sync.Mutex
	freeIDs []uint64
	retired stats.Counters

	// regMu orders registration against Quiesce: NewThread claims and
	// publishes its slot under it, and Quiesce holds it for as long as its
	// caller relies on no thread being open. open counts the descriptors
	// NewThread has handed out and ReleaseThread has not yet taken back.
	regMu sync.Mutex
	open  atomic.Int64
}

// NewRuntime builds a runtime from opts.
func NewRuntime(opts Options) (*Runtime, error) {
	opts.fill()
	// The slot tracker's cached watermark packs the holder index next to the
	// timestamp, so MaxSlots (far below the vis word's TID limit) bounds the
	// registry.
	if opts.MaxThreads < 1 || opts.MaxThreads > txnlist.MaxSlots {
		return nil, fmt.Errorf("core: MaxThreads %d outside [1, %d]", opts.MaxThreads, txnlist.MaxSlots)
	}
	rt := &Runtime{
		// The heap allocates in whole conflict-detection blocks (both
		// constructors round BlockWords up to the same power of two), so
		// distinct extents never share an orec's block. It stays the first
		// allocation: made after the 4 MB orec table, a 32 MB heap came back
		// from the Go runtime already touched in four benchmark runs of six
		// (serve_mixed peak RSS 21 → 52 MB).
		Heap:             heap.NewQuantum(opts.HeapWords, opts.BlockWords),
		Orecs:            orec.NewTable(opts.OrecCount, opts.BlockWords),
		MaxGrace:         opts.MaxGrace,
		HybridThreshold:  opts.HybridThreshold,
		CapFenceAtCommit: opts.CapFenceAtCommit,
		MaxAttempts:      opts.MaxAttempts,
		StallThreshold:   opts.StallThreshold,
		OnStall:          opts.OnStall,
		threads:          make([]atomic.Pointer[Thread], opts.MaxThreads),
	}
	if opts.Tracker == TrackerList {
		rt.Active = NewListTracker(rt)
	} else {
		rt.Active = NewSlotTracker(rt)
	}
	// Every tracker kind carries the schedule explorer's yield points
	// (tracker.go); disabled cost is a nil-check per Enter/EnterAt/Leave.
	rt.Active = yieldTracker{inner: rt.Active}
	// The reclaimer's epoch source is the tracker's oldest-begin watermark;
	// bind it through a closure so tests that swap trackers keep working.
	rt.Reclaim = reclaim.New(rt.Heap,
		func() (uint64, bool) { return rt.Active.OldestBegin() },
		reclaim.Config{Threads: opts.MaxThreads})
	// Start time at 1 so that a zeroed vis word (rts = 0) can never read
	// as a hint covering a live transaction: every begin timestamp is ≥ 1.
	rt.Clock.Tick()
	return rt, nil
}

// NewThread registers a new thread descriptor. A worker goroutine must use
// its own descriptor exclusively. Descriptors live until ReleaseThread
// (stm.Thread.Close) returns their registry slot; released slot IDs are
// reused before the high-water counter grows, so a pool that churns workers
// stays within MaxThreads. NewThread is safe to call while other threads
// are running transactions; it waits while a Quiesce is running.
func (rt *Runtime) NewThread() (*Thread, error) {
	rt.regMu.Lock()
	defer rt.regMu.Unlock()
	var id int64 = -1
	rt.lifeMu.Lock()
	if n := len(rt.freeIDs); n > 0 {
		id = int64(rt.freeIDs[n-1])
		rt.freeIDs = rt.freeIDs[:n-1]
	}
	rt.lifeMu.Unlock()
	if id < 0 {
		id = rt.nthread.Add(1) - 1
		if id >= int64(len(rt.threads)) {
			rt.nthread.Add(-1)
			return nil, fmt.Errorf("core: thread limit %d reached", len(rt.threads))
		}
	}
	t := &Thread{RT: rt, ID: uint64(id), Rl: rt.Reclaim.Local(int(id))}
	rt.open.Add(1)
	rt.threads[id].Store(t)
	return t, nil
}

// ReleaseThread unregisters a descriptor previously obtained from NewThread:
// it flushes the thread's local reclaim front (so retired extents become
// visible to Reclaim.Drain), folds the thread's op counters into the
// runtime-level retired accumulator, clears the registry slot (liveness
// checks treat the ID as dead from then on), and parks the slot ID for
// reuse. The descriptor must be quiescent — no transaction in flight, no
// epoch pin held. Releasing a descriptor twice, or one that is still
// active, is an error.
func (rt *Runtime) ReleaseThread(t *Thread) error {
	if t == nil || t.RT != rt {
		return fmt.Errorf("core: ReleaseThread of foreign descriptor")
	}
	if _, active := t.Published(); active {
		return fmt.Errorf("core: ReleaseThread of thread %d with a transaction or epoch pin still published", t.ID)
	}
	if !rt.threads[t.ID].CompareAndSwap(t, nil) {
		return fmt.Errorf("core: ReleaseThread of already-released thread %d", t.ID)
	}
	// Push buffered retires out of the per-thread front into the shared
	// limbo shards; without this the extents would strand invisibly (the
	// historical leak this release path fixes).
	t.Rl.Flush()
	rt.lifeMu.Lock()
	rt.retired.Add(&t.Stats)
	rt.freeIDs = append(rt.freeIDs, t.ID)
	rt.lifeMu.Unlock()
	rt.open.Add(-1)
	return nil
}

// Quiesce runs fn while no thread is registered, and reports false without
// running it if any descriptor is still open. NewThread waits until fn
// returns, so nothing fn does can race with a transaction; fn must not
// itself call NewThread or Quiesce.
func (rt *Runtime) Quiesce(fn func()) bool {
	rt.regMu.Lock()
	defer rt.regMu.Unlock()
	if rt.open.Load() != 0 {
		return false
	}
	fn()
	return true
}

// RetiredStats folds the op counters accumulated by released descriptors
// into agg, so aggregate statistics survive worker churn.
func (rt *Runtime) RetiredStats(agg *stats.Counters) {
	rt.lifeMu.Lock()
	agg.Add(&rt.retired)
	rt.lifeMu.Unlock()
}

// ThreadByID returns the descriptor registered under id, or nil. Liveness
// checks in the visibility protocol use it to decide whether an orec's last
// reader may still be running.
func (rt *Runtime) ThreadByID(id uint64) *Thread {
	if id >= uint64(len(rt.threads)) {
		return nil
	}
	return rt.threads[id].Load()
}

// ForEachThread calls fn for every registered descriptor.
func (rt *Runtime) ForEachThread(fn func(*Thread)) {
	n := rt.nthread.Load()
	for i := int64(0); i < n; i++ {
		if t := rt.threads[i].Load(); t != nil {
			fn(t)
		}
	}
}
