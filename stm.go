// Package stm is a software transactional memory library with transparent
// privatization safety, reproducing Marathe, Spear & Scott, "Scalable
// Techniques for Transparent Privatization in Software Transactional
// Memory" (ICPP 2008).
//
// The library manages a word-addressed transactional heap. Threads execute
// atomic blocks against it through a C-style word API (the paper's
// stm_begin / stm_read / stm_write / stm_commit), and — with any of the
// privatization-safe algorithms — may freely access data they have
// privatized with zero instrumentation afterwards:
//
//	s, _ := stm.New(stm.Config{Algorithm: stm.PVRStore})
//	head, _ := s.Alloc(1)
//	th, _ := s.NewThread()
//	th.Atomic(func(tx *stm.Tx) {
//	    first := tx.Load(head) // transactional read
//	    tx.Store(head, 0)      // transactional write: privatize the list
//	    _ = first
//	})
//	// After the transaction commits the detached structure is private:
//	// plain, uninstrumented access is safe under every algorithm except
//	// the TL2 baseline.
//
// Eight algorithms are provided (see Algorithm); they correspond one-to-one
// to the curves in the paper's Figure 3.
package stm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"privstm/internal/core"
	"privstm/internal/heap"
	"privstm/internal/hybrid"
	"privstm/internal/ord"
	"privstm/internal/pvr"
	"privstm/internal/reclaim"
	"privstm/internal/stats"
	"privstm/internal/tl2"
	"privstm/internal/val"
)

// Addr is the address of one word of transactional memory. The zero Addr
// is the nil address; it is valid to load and store (it hashes to an orec
// like any other word) but is never returned by Alloc, so programs can use
// it as a null pointer.
type Addr = heap.Addr

// Word is the unit of transactional access.
type Word = heap.Word

// Nil is the reserved null address.
const Nil = heap.Nil

// Algorithm selects the STM implementation.
type Algorithm int

// The eight systems evaluated in the paper's §V.
const (
	// TL2 is the privatization-UNSAFE baseline modeled on Transactional
	// Locking II. Use it only for comparison; privatized data may race.
	TL2 Algorithm = iota
	// Ord is the strict in-order commit scheme (Detlefs et al. style).
	Ord
	// OrdQueue is Ord with a CLH queue lock instead of a ticket lock.
	OrdQueue
	// Val executes a validation fence at the end of every writer
	// transaction.
	Val
	// PVRBase is the basic partially-visible-reads scheme (§II).
	PVRBase
	// PVRCAS adds adaptive grace periods (§III-A).
	PVRCAS
	// PVRStore replaces the visibility CAS with the store-only protocol
	// (§III-B).
	PVRStore
	// PVRWriterOnly adds the read-only transaction optimization (§III-C).
	PVRWriterOnly
	// PVRHybrid dynamically combines strict ordering with partial
	// visibility (§IV).
	PVRHybrid
)

// Algorithms lists every available algorithm in the order the paper's
// figures present them.
var Algorithms = []Algorithm{TL2, Ord, Val, PVRBase, PVRCAS, PVRStore, PVRWriterOnly, PVRHybrid}

// String returns the curve label used in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case TL2:
		return "TL2"
	case Ord:
		return "Ord"
	case OrdQueue:
		return "OrdQueue"
	case Val:
		return "Val"
	case PVRBase:
		return "pvrBase"
	case PVRCAS:
		return "pvrCAS"
	case PVRStore:
		return "pvrStore"
	case PVRWriterOnly:
		return "pvrWriterOnly"
	case PVRHybrid:
		return "pvrHybrid"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a figure label (case-sensitive, e.g. "pvrStore")
// back to its Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range append([]Algorithm{OrdQueue}, Algorithms...) {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("stm: unknown algorithm %q", s)
}

// Safe reports whether the algorithm guarantees transparent privatization
// safety (every algorithm but the TL2 baseline).
func (a Algorithm) Safe() bool { return a != TL2 }

// Config configures an STM instance. The zero value selects TL2 with
// defaults; set Algorithm explicitly.
type Config struct {
	Algorithm Algorithm
	// HeapWords is the transactional heap capacity (default 1<<20).
	HeapWords int
	// OrecCount is the ownership-record table size (default 1<<16,
	// rounded up to a power of two).
	OrecCount int
	// BlockWords is the conflict-detection granularity — the paper's
	// "small, contiguous, fixed-size blocks of memory" (§II-A) — and the
	// heap's allocation quantum, in words (rounded up to a power of two;
	// default 2 = 16 bytes, malloc's quantum and the smallest node any
	// container here allocates). BlockWords consecutive words share one
	// ownership record; Alloc starts every extent on a block boundary and
	// sizes it up to whole blocks, so two extents never share a record and
	// a two-word node pays for one. A larger block makes neighbouring words
	// of one extent conflict falsely more often (only ever conservative: an
	// abort, never a missed conflict) and wastes up to BlockWords−1 words
	// per extent; 1 is the paper's word granularity, kept for ablations.
	BlockWords int
	// MaxThreads bounds concurrently registered threads (default 64).
	MaxThreads int
	// MaxGrace caps adaptive grace periods (default 256, the paper's
	// experimental setting).
	MaxGrace uint64
	// HybridThreshold is the read-set size at which PVRHybrid switches to
	// partial visibility (default 16, the paper's setting).
	HybridThreshold int
	// Tracker selects the incomplete-transaction tracker. The default,
	// TrackerSlot, keeps a cached oldest-begin watermark over per-thread
	// slots: begins, ends, and oldest-transaction queries are all O(1).
	// TrackerList restores the paper's §II-C spin-locked central list;
	// TrackerScan is the O(MaxThreads)-query registry scan.
	Tracker TrackerKind
	// ScanTracker is the deprecated boolean form of Tracker: when set (and
	// Tracker is left at its default) it selects TrackerScan.
	ScanTracker bool
	// DisableSnapshotExtension turns off timestamp extension on the
	// redo-log algorithms: a transaction that reads data newer than its
	// begin time then aborts instead of revalidating and advancing its
	// snapshot. Kept for ablations.
	DisableSnapshotExtension bool
	// CapFenceAtCommit bounds privatization-fence thresholds just below
	// the writer's commit time — the fence waits only for transactions that
	// began before the commit's clock tick — eliminating the grace-period
	// "extended delays" of §III-A (a §II-D future-work optimization).
	CapFenceAtCommit bool
	// GraceStrategy selects how grace periods adapt (§III-A): the
	// default GraceExponential is the paper's choice; GraceLinear and
	// GraceHybrid reproduce the alternatives the authors report trying.
	GraceStrategy GraceStrategy
	// OrecLayout selects the orec table's memory layout: OrecLayoutAoS
	// (default) keeps each record's four metadata words on one padded
	// cache line; OrecLayoutSoA splits them into four parallel padded
	// column arrays so a committing writer's owner-word scan stops
	// false-sharing with concurrent readers' visibility-hint stores (at
	// 4x the metadata footprint).
	OrecLayout OrecLayout
	// Clock selects the version-clock scheme. ClockGV1 (default) CASes the
	// global clock once per writer commit — the classic TL2 rule, with
	// unique totally ordered timestamps. ClockGV5 defers: commits stamp
	// Now()+1 without touching the clock, readers that trip over a future
	// timestamp publish it (AdvanceTo) and extend, and aborts bump the
	// clock — zero commit-path contention. ClockLocal gives each thread a
	// local clock merged with the global at commit time. The undo-log PVR
	// algorithms (PVRBase/CAS/Store/WriterOnly) require ClockGV1 — they
	// never extend their snapshots and the privatization-fence proofs
	// assume a monotone global commit order — which New enforces (see
	// CORRECTNESS.md §13).
	Clock ClockMode
	// OrderBatch enables the Ord algorithm's flat-combining commit
	// batcher: the committer currently served by the ticket lock performs
	// up to OrderBatch successors' write-backs and releases under one
	// ticket hold instead of handing the lock through N wakeups. 0
	// disables; only Ord's ticket variant consults it.
	OrderBatch int
	// DisableHintCache turns off the thread-local orec hint cache on the
	// partially-visible-read engines: every re-read then re-runs the full
	// §II-E visibility protocol instead of skipping after the first
	// covered observation. Kept for ablations.
	DisableHintCache bool
	// ContentionManager selects the policy applied between retry attempts
	// of an aborted transaction: CMBackoff (default), CMKarma, or
	// CMSerialize.
	ContentionManager CMPolicy
	// MaxAttempts is the abort budget before a transaction escalates to
	// the serialized-irrevocable fallback (global token, drained rivals,
	// guaranteed commit): 0 means DefaultMaxAttempts, negative disables
	// escalation.
	MaxAttempts int
	// StallThreshold is the number of no-progress fence backoff rounds
	// before the stall watchdog fires (0 = DefaultStallThreshold, negative
	// disables it).
	StallThreshold int
	// OnStall is invoked once per detected fence stall; nil selects the
	// default log line. It runs on the fenced thread: keep it cheap.
	OnStall func(StallInfo)
	// DisableSandboxChecks turns off the validate-before-dangerous-use
	// sandbox checkpoints (Tx.Div, Tx.LoadPriv, the wild-address guards on
	// the read and in-place write paths): doomed transactions then rely
	// solely on commit-time validation and the panic sandbox of Atomic.
	// Kept for ablations (stmbench -nosandbox); unsafe to combine with
	// uninstrumented access to transactionally-read pointers.
	DisableSandboxChecks bool
	// ReclaimPoison makes the epoch-based reclaimer overwrite every
	// quarantined word with the reclaim.Poison sentinel, so a
	// use-after-reclaim fails loudly instead of silently consuming stale
	// data. Debug mode: leave it off in production runs.
	ReclaimPoison bool
	// ReclaimCollectEvery is the reclaimer's amortization period in retires
	// per thread (0 = default).
	ReclaimCollectEvery int
}

// TrackerKind re-exports the incomplete-transaction tracker selector.
type TrackerKind = core.TrackerKind

// The tracker implementations (Config.Tracker).
const (
	TrackerSlot = core.TrackerSlot
	TrackerList = core.TrackerList
	TrackerScan = core.TrackerScan
)

// CMPolicy re-exports the contention-management policy selector.
type CMPolicy = core.CMPolicy

// The contention-management policies (Config.ContentionManager).
const (
	CMBackoff   = core.CMBackoff
	CMKarma     = core.CMKarma
	CMSerialize = core.CMSerialize
)

// ParseCMPolicy maps a flag spelling ("backoff", "karma", "serialize")
// back to its CMPolicy.
func ParseCMPolicy(s string) (CMPolicy, error) { return core.ParseCMPolicy(s) }

// DefaultMaxAttempts re-exports the default abort budget before
// serialized-irrevocable escalation.
const DefaultMaxAttempts = core.DefaultMaxAttempts

// StallInfo re-exports the fence stall report passed to Config.OnStall.
type StallInfo = core.StallInfo

// The fence names reported in StallInfo.Fence.
const (
	FencePrivatization = core.FencePrivatization
	FenceValidation    = core.FenceValidation
)

// GraceStrategy re-exports the §III-A adaptation families.
type GraceStrategy = core.GraceStrategy

// The grace adaptation strategies of §III-A.
const (
	GraceExponential = core.GraceExponential
	GraceLinear      = core.GraceLinear
	GraceHybrid      = core.GraceHybrid
)

// ClockMode re-exports the version-clock scheme selector.
type ClockMode = core.ClockMode

// The version-clock schemes (Config.Clock).
const (
	ClockGV1   = core.ClockGV1
	ClockGV5   = core.ClockGV5
	ClockLocal = core.ClockLocal
)

// ClockModes lists every clock scheme in flag order.
var ClockModes = []ClockMode{ClockGV1, ClockGV5, ClockLocal}

// ParseClockMode maps a flag spelling ("gv1", "gv5", "local") back to its
// ClockMode.
func ParseClockMode(s string) (ClockMode, error) { return core.ParseClockMode(s) }

// OrecLayout re-exports the orec-table memory layout selector.
type OrecLayout = core.OrecLayout

// The orec-table layouts (Config.OrecLayout).
const (
	OrecLayoutAoS = core.OrecLayoutAoS
	OrecLayoutSoA = core.OrecLayoutSoA
)

// ParseOrecLayout maps a flag spelling ("aos", "soa") back to its
// OrecLayout.
func ParseOrecLayout(s string) (OrecLayout, error) { return core.ParseOrecLayout(s) }

// STM is one transactional memory instance: a heap, its metadata, and an
// algorithm. Create with New; register worker threads with NewThread.
type STM struct {
	cfg    Config
	rt     *core.Runtime
	engine core.Engine
}

// New creates an STM instance.
func New(cfg Config) (*STM, error) {
	if cfg.Clock != ClockGV1 {
		switch cfg.Algorithm {
		case PVRBase, PVRCAS, PVRStore, PVRWriterOnly:
			return nil, fmt.Errorf(
				"stm: algorithm %v requires ClockGV1: the undo-log engines never extend their snapshots, and the privatization-fence proofs assume every writer commit advances the global clock (CORRECTNESS.md §13)",
				cfg.Algorithm)
		}
	}
	rt, err := core.NewRuntime(core.Options{
		HeapWords:        cfg.HeapWords,
		OrecCount:        cfg.OrecCount,
		BlockWords:       cfg.BlockWords,
		MaxThreads:       cfg.MaxThreads,
		MaxGrace:         cfg.MaxGrace,
		HybridThreshold:  cfg.HybridThreshold,
		Clock:            cfg.Clock,
		OrderBatch:       cfg.OrderBatch,
		Tracker:          cfg.Tracker,
		ScanTracker:      cfg.ScanTracker,
		DisableExtension: cfg.DisableSnapshotExtension,
		CapFenceAtCommit: cfg.CapFenceAtCommit,
		GraceStrategy:    cfg.GraceStrategy,
		OrecLayout:       cfg.OrecLayout,
		DisableHintCache: cfg.DisableHintCache,
		CM:               cfg.ContentionManager,
		MaxAttempts:      cfg.MaxAttempts,
		StallThreshold:   cfg.StallThreshold,
		OnStall:          cfg.OnStall,

		DisableSandboxChecks: cfg.DisableSandboxChecks,
		ReclaimPoison:        cfg.ReclaimPoison,
		ReclaimCollectEvery:  cfg.ReclaimCollectEvery,
	})
	if err != nil {
		return nil, err
	}
	s := &STM{cfg: cfg, rt: rt}
	switch cfg.Algorithm {
	case TL2:
		s.engine = tl2.New(rt)
	case Ord:
		s.engine = ord.New(rt)
	case OrdQueue:
		s.engine = ord.NewQueue(rt)
	case Val:
		s.engine = val.New(rt)
	case PVRBase:
		s.engine = pvr.NewBase(rt)
	case PVRCAS:
		s.engine = pvr.NewCAS(rt)
	case PVRStore:
		s.engine = pvr.NewStore(rt)
	case PVRWriterOnly:
		s.engine = pvr.NewWriterOnly(rt)
	case PVRHybrid:
		s.engine = hybrid.New(rt)
	default:
		return nil, fmt.Errorf("stm: unknown algorithm %v", cfg.Algorithm)
	}
	return s, nil
}

// MustNew is New that panics on error, for tests and examples with static
// configurations.
func MustNew(cfg Config) *STM {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Algorithm returns the configured algorithm.
func (s *STM) Algorithm() Algorithm { return s.cfg.Algorithm }

// Alloc reserves n contiguous zeroed words of transactional memory. The
// extent starts on a Config.BlockWords boundary and occupies whole blocks
// (HeapStats counts the rounded size), so it shares no ownership record's
// block with any other extent.
func (s *STM) Alloc(n int) (Addr, error) { return s.rt.Heap.Alloc(n) }

// MustAlloc is Alloc that panics on heap exhaustion.
func (s *STM) MustAlloc(n int) Addr { return s.rt.Heap.MustAlloc(n) }

// DirectLoad reads a word with no instrumentation. It is safe only for
// data the calling thread privately owns — freshly allocated words not yet
// published, or data privatized by a committed transaction under a
// privatization-safe algorithm.
func (s *STM) DirectLoad(a Addr) Word { return s.rt.Heap.Load(a) }

// DirectStore writes a word with no instrumentation. See DirectLoad for
// the ownership requirements.
func (s *STM) DirectStore(a Addr, w Word) { s.rt.Heap.Store(a, w) }

// AtomicLoad reads a word with atomic semantics outside any transaction.
// Tests and checkers that deliberately race (e.g. against the TL2
// baseline) use it to keep Go's race detector out of the experiment.
func (s *STM) AtomicLoad(a Addr) Word { return s.rt.Heap.AtomicLoad(a) }

// AtomicStore writes a word with atomic semantics outside any transaction.
func (s *STM) AtomicStore(a Addr, w Word) { s.rt.Heap.AtomicStore(a, w) }

// Stats aggregates the execution counters of every registered thread plus
// those of threads already released through Close, so totals survive worker
// churn. Safe to call after workers finish (per-thread counters are
// unsynchronized while their thread runs).
func (s *STM) Stats() stats.Counters {
	var agg stats.Counters
	s.rt.ForEachThread(func(t *core.Thread) { agg.Add(&t.Stats) })
	s.rt.RetiredStats(&agg)
	return agg
}

// HeapStats snapshots the heap's allocation accounting (bump, freed,
// reused words).
func (s *STM) HeapStats() heap.Stats { return s.rt.Heap.Stats() }

// ReclaimStats snapshots the epoch-based reclaimer's counters (retired,
// collected, freed, still-quarantined extents).
func (s *STM) ReclaimStats() reclaim.Stats { return s.rt.Reclaim.Stats() }

// DrainReclaim forces a collection pass over every thread's limbo list and
// returns the number of extents it freed. Extents whose epoch has not
// arrived (some incomplete transaction began before their retire stamp)
// stay quarantined. Tests and end-of-run accounting use it; steady-state
// collection is amortized into Thread.Retire.
func (s *STM) DrainReclaim() uint64 { return s.rt.Reclaim.Drain() }

// Thread is a per-goroutine transaction context. A Thread must not be used
// concurrently; create one per worker with NewThread and release it with
// Close when the worker retires.
type Thread struct {
	s *STM
	t *core.Thread
	// tx is the reusable transaction handle passed to Atomic bodies.
	tx Tx
	// deadline, when nonzero, is the wall-clock instant after which
	// Tx.CheckDeadline cancels the running transaction. Owner-goroutine
	// only, like the rest of the descriptor.
	deadline time.Time
	// trace, when non-nil, records events (see EnableTrace). Atomic so
	// EnableTrace/DisableTrace/Trace may run concurrently with an
	// in-flight Atomic on the owning goroutine.
	trace atomic.Pointer[traceRing]
}

// NewThread registers a new worker thread.
func (s *STM) NewThread() (*Thread, error) {
	t, err := s.rt.NewThread()
	if err != nil {
		return nil, err
	}
	th := &Thread{s: s, t: t}
	th.tx.th = th
	return th, nil
}

// MustNewThread is NewThread that panics on the thread-limit error.
func (s *STM) MustNewThread() *Thread {
	th, err := s.NewThread()
	if err != nil {
		panic(err)
	}
	return th
}

// ErrThreadClosed is returned by Close when the Thread was already closed.
var ErrThreadClosed = errors.New("stm: thread already closed")

// Close releases the thread's descriptor back to the runtime: buffered
// retires are flushed to the shared reclaimer (so DrainReclaim can free
// them), the thread's op counters are folded into STM.Stats' retired
// accumulator, and the registry slot — a scarce resource capped by
// Config.MaxThreads — is returned for reuse by a later NewThread. Without
// Close a pool that recycles workers exhausts the registry and strands
// retired extents on private fronts forever.
//
// The thread must be quiescent: Close must not race with an Atomic on this
// thread, and returns an error if a transaction or weak-read epoch pin is
// still published. After Close the Thread is dead; further use panics.
func (th *Thread) Close() error {
	if th.t == nil {
		return ErrThreadClosed
	}
	if err := th.s.rt.ReleaseThread(th.t); err != nil {
		return err
	}
	th.t = nil
	return nil
}

// Stats returns this thread's execution counters.
func (th *Thread) Stats() *stats.Counters { return &th.t.Stats }

// Retire hands the n-word extent at a to the epoch-based reclaimer
// (internal/reclaim): the extent is stamped with this thread's latest
// commit timestamp and physically reused only once no incomplete
// transaction began before that stamp — the discipline that makes freeing
// shared nodes safe even while old-snapshot readers still hold their
// addresses (CORRECTNESS.md §14).
//
// Call Retire only after the transaction that unlinked the extent has
// committed (i.e. after Atomic returns), from the thread that ran it. The
// retired words must never be accessed directly again by the caller.
//
// Retires are buffered on a thread-private front and published to the
// shared reclaimer in batches; call FlushReclaim when the thread stops so
// DrainReclaim and ReclaimStats observe everything.
func (th *Thread) Retire(a Addr, n int) { th.t.Retire(a, n) }

// Alloc returns an n-word extent, preferring memory recycled through the
// reclaimer's epoch (this thread's cleared retires and its shard's stock)
// and falling back to the shared heap. Unlike STM.MustAlloc, the words are
// NOT guaranteed zero when they come from the recycle path — treat the
// extent like a malloc'd block and initialize every word before publishing
// it to other threads.
func (th *Thread) Alloc(n int) (Addr, error) {
	if a, ok := th.t.AllocReused(n); ok {
		return a, nil
	}
	return th.s.rt.Heap.Alloc(n)
}

// MustAlloc is Alloc that panics on heap exhaustion (the panic value wraps
// heap.ErrOutOfMemory).
func (th *Thread) MustAlloc(n int) Addr {
	a, err := th.Alloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// FlushReclaim publishes this thread's buffered retires and prefetched
// free extents to the shared reclaimer. Call it when the thread finishes
// working; until then, recent retires are invisible to DrainReclaim,
// ReclaimStats, and other threads' allocations.
func (th *Thread) FlushReclaim() { th.t.FlushReclaim() }

// Atomic executes body as a transaction, retrying transparently on
// conflict. It returns nil on commit, or the error passed to Tx.Cancel.
//
// The body may be executed several times; it must not have side effects
// outside the transactional heap (other than via Tx). A body that panics
// while its reads are consistent propagates the panic after rollback; a
// panic raised by a doomed transaction (inconsistent reads) is converted
// into a retry, sandboxing user code against torn state.
func (th *Thread) Atomic(body func(tx *Tx)) error {
	if th.t == nil {
		panic("stm: Atomic on closed Thread")
	}
	if th.trace.Load() == nil {
		return core.Run(th.s.engine, th.t, func() { body(&th.tx) })
	}
	attempt := Word(0)
	err := core.Run(th.s.engine, th.t, func() {
		attempt++
		if tr := th.trace.Load(); tr != nil {
			tr.add(TraceEvent{Kind: TraceAttempt, Val: attempt})
		}
		body(&th.tx)
	})
	kind := TraceCommit
	if err != nil {
		kind = TraceCancel
	}
	if tr := th.trace.Load(); tr != nil {
		tr.add(TraceEvent{Kind: kind})
	}
	return err
}

// Tx is the handle for transactional operations inside Atomic.
type Tx struct {
	th *Thread
}

// Load performs a transactional read of a.
func (tx *Tx) Load(a Addr) Word {
	w := tx.th.s.engine.Read(tx.th.t, a)
	if tr := tx.th.trace.Load(); tr != nil {
		tr.add(TraceEvent{Kind: TraceRead, Addr: a, Val: w})
	}
	return w
}

// Store performs a transactional write of w to a.
func (tx *Tx) Store(a Addr, w Word) {
	tx.th.s.engine.Write(tx.th.t, a, w)
	if tr := tx.th.trace.Load(); tr != nil {
		tr.add(TraceEvent{Kind: TraceWrite, Addr: a, Val: w})
	}
}

// LoadAddr reads a word that stores a heap address (a "pointer" in the
// transactional heap).
func (tx *Tx) LoadAddr(a Addr) Addr { return Addr(tx.Load(a)) }

// StoreAddr writes a heap address into a word.
func (tx *Tx) StoreAddr(a Addr, p Addr) { tx.Store(a, Word(p)) }

// Div returns n/d with the sandbox's validate-before-dangerous-use
// discipline: when the divisor is zero the transaction validates its read
// set first, so a doomed attempt — whose zero came from torn state —
// aborts and retries instead of faulting, while a consistent transaction
// propagates the genuine division-by-zero panic. Nonzero divisors pay one
// compare (the standard sandboxing fast path: only the value that can
// fault triggers validation).
func (tx *Tx) Div(n, d Word) Word {
	if d == 0 {
		tx.th.t.ValidateBeforeUse()
	}
	return n / d
}

// LoadPriv performs a sandboxed *uninstrumented* load through a, an
// address obtained from transactionally-read data (e.g. a node pointer the
// transaction is about to privatize and traverse without instrumentation).
// The sandbox validates the read set first — a doomed attempt retries here
// instead of consuming reclaimed or poisoned memory — and bounds-checks
// the address; only then is the plain load issued. With
// Config.DisableSandboxChecks the validation is skipped and the caller
// inherits the torn-pointer hazard.
func (tx *Tx) LoadPriv(a Addr) Word {
	t := tx.th.t
	t.ValidateBeforeUse()
	t.CheckAddr(a)
	return tx.th.s.rt.Heap.Load(a)
}

// Retry aborts the transaction and re-executes it from the start.
func (tx *Tx) Retry() { tx.th.t.ConflictAbort() }

// Cancel rolls the transaction back and makes Atomic return err without
// retrying.
func (tx *Tx) Cancel(err error) { tx.th.t.UserCancel(err) }

// ErrDeadlineExceeded is the error Atomic returns when CheckDeadline trips
// the deadline armed with Thread.SetTxnDeadline.
var ErrDeadlineExceeded = errors.New("stm: transaction deadline exceeded")

// SetTxnDeadline arms a wall-clock deadline for subsequent transactions on
// this thread: once it passes, any Tx.CheckDeadline call cancels the
// transaction and Atomic returns ErrDeadlineExceeded. The zero time
// disarms. The check is cooperative — bodies that never call CheckDeadline
// never observe it — and the clock read happens inside the runtime, keeping
// transaction bodies themselves free of time calls (which the purity
// analyzer forbids in user code).
func (th *Thread) SetTxnDeadline(t time.Time) { th.deadline = t }

// CheckDeadline cancels the transaction with ErrDeadlineExceeded if the
// thread's armed deadline (Thread.SetTxnDeadline) has passed. No-op when
// disarmed.
func (tx *Tx) CheckDeadline() {
	if d := tx.th.deadline; !d.IsZero() && time.Now().After(d) {
		tx.Cancel(ErrDeadlineExceeded)
	}
}

// ReadSetLen reports how many logged read-set entries the transaction
// currently holds (weak reads are unlogged and not counted). Servers use it
// to enforce per-tenant read-set quotas via Cancel.
func (tx *Tx) ReadSetLen() int { return tx.th.t.Reads.Len() }

// WriteSetLen reports how many words the transaction has written so far —
// redo-log entries on the lazy engines plus undo-log entries on the
// in-place engines. Servers use it to enforce per-tenant write-set quotas
// via Cancel.
func (tx *Tx) WriteSetLen() int { return tx.th.t.Redo.Len() + tx.th.t.Undo.Len() }

// ---- Semantic conflict layer (internal/tds, CORRECTNESS.md §15) ----

// SemTable is a table of abstract-lock stripes for semantic conflict
// detection: containers map operations to stripes (by key or predicate) and
// the commit protocol validates and acquires stripes alongside the
// word-level orecs, so structurally overlapping but semantically disjoint
// operations stop aborting each other. Create with NewSemTable; one table
// per container instance.
type SemTable = core.SemTable

// NewSemTable creates an abstract-lock table with at least n stripes
// (rounded up to a power of two). By convention stripe 0 is reserved for
// commuting counters (Tx.SemDelta) and is never write-acquired.
func NewSemTable(n int) *SemTable { return core.NewSemTable(n) }

// SemanticCommitSupported reports whether the configured algorithm's commit
// protocol runs the abstract-lock hooks. All eight built-in algorithms
// support it; the check exists so semantic containers fail fast on an
// engine that would silently skip stripe validation.
func (s *STM) SemanticCommitSupported() bool {
	_, ok := s.engine.(core.SemCommitter)
	return ok
}

// SemSample records a read-side sample of stripe i of st: everything the
// transaction observes under that abstract lock is valid iff the stripe is
// unchanged at commit time. Aborts immediately if the stripe is owned by a
// committing rival.
func (tx *Tx) SemSample(st *SemTable, i uint32) { tx.th.t.SemSample(st, i) }

// SemIntendWrite declares that the transaction semantically modifies the
// state guarded by stripe i of st: the commit acquires the stripe and bumps
// its version on release, invalidating every overlapping sampler.
func (tx *Tx) SemIntendWrite(st *SemTable, i uint32) { tx.th.t.SemIntendWrite(st, i) }

// SemDelta logs a commuting counter update: add d (two's complement for
// decrements) to the word at a, applied with one atomic add at commit after
// bumping stripe i — no word-level conflict, counted in
// stats.SemanticSkips. The word must be maintained exclusively through
// deltas, and its readers must sample stripe i (which must be one of the
// never-acquired counter stripes, conventionally stripe 0).
func (tx *Tx) SemDelta(st *SemTable, i uint32, a Addr, d Word) { tx.th.t.SemAddDelta(st, i, a, d) }

// SemPending returns the delta this transaction has already logged against
// the counter word at a — read-your-writes for SemDelta counters: deltas
// only land at commit, so an in-transaction reader of the counter adds this
// to the committed word it loaded.
func (tx *Tx) SemPending(a Addr) Word { return tx.th.t.SemPendingDelta(a) }

// LoadWeak performs an unlogged transactional read: the word is loaded
// consistently (orec double-check) but never enters the read set, so only
// the abstract locks the caller sampled certify it at commit. The first
// weak read pins the transaction on the active tracker, blocking epoch
// reclamation of anything retired after it — which is what makes chasing
// weakly-read pointers safe. Use only under a sampled stripe.
func (tx *Tx) LoadWeak(a Addr) Word { return tx.th.t.ReadWeak(a) }

// LoadWeakAddr is LoadWeak for a word storing a heap address.
func (tx *Tx) LoadWeakAddr(a Addr) Addr { return Addr(tx.th.t.ReadWeak(a)) }

// MustAllocTxn allocates an n-word extent whose lifetime follows the
// transaction: aborted attempts recycle it into the retry's allocations,
// and a committed attempt that did not consume it retires it through the
// epoch reclaimer. Words are NOT guaranteed zero — initialize every word
// before publishing. Panics on heap exhaustion.
func (tx *Tx) MustAllocTxn(n int) Addr { return tx.th.t.MustAllocTxn(n) }

// RetireOnCommit schedules the n-word extent at a for epoch retirement iff
// the running transaction commits — the right way for a transaction to free
// a node it unlinks, since the unlink itself may abort.
func (tx *Tx) RetireOnCommit(a Addr, n int) { tx.th.t.RetireOnCommit(a, n) }

// WeakQuiesce blocks until every transaction that began before this
// thread's latest commit has completed. Containers that hand out privatized
// extents (tds.Map.PrivateSnapshot, tds.Queue.DrainPrivate) call it after
// the privatizing commit: weak readers are invisible to the engines'
// privatization fences, but all of them are pinned on the active tracker,
// so this drains them before uninstrumented access begins.
func (th *Thread) WeakQuiesce() { th.t.WeakQuiesce() }
