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
//	node, _ := th.Privatize(func(tx *stm.Tx) (stm.Addr, int) {
//	    first := tx.LoadAddr(head)  // transactional read
//	    tx.StoreAddr(head, stm.Nil) // transactional write: privatize the list
//	    return first, 2             // the detached node, two words
//	})
//	// After the transaction commits the detached structure is private:
//	// plain, uninstrumented access through the stm.Private handle
//	// (node.Load, node.Follow) is safe under every algorithm except the
//	// TL2 baseline.
//
// Eight algorithms are provided (see Algorithm); they correspond one-to-one
// to the curves in the paper's Figure 3.
package stm

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"privstm/internal/core"
	"privstm/internal/heap"
	"privstm/internal/reclaim"
	"privstm/internal/stats"
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
	// Val executes a validation fence at the end of every writer
	// transaction.
	Val
	// PVRBase is the basic partially-visible-reads scheme (§II).
	PVRBase
	// PVRCAS adds adaptive grace periods (§III-A).
	PVRCAS
	// PVRStore is the paper's §III-B cell (store-only visibility updates).
	// That protocol can lower a live reader's hint as implemented, so the
	// cell runs PVRCAS's protocol under this name (CORRECTNESS.md §4).
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
	for _, a := range Algorithms {
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
	// MaxThreads bounds concurrently registered threads (default 64; at
	// most 65534, the slot tracker's capacity).
	MaxThreads int
	// MaxGrace caps adaptive grace periods (default 256, the paper's
	// experimental setting).
	MaxGrace uint64
	// HybridThreshold is the number of logged reads (Tx.ReadSetLen) past
	// which PVRHybrid switches to partial visibility (default 16, the
	// paper's setting).
	HybridThreshold int
	// CapFenceAtCommit bounds privatization-fence thresholds just below
	// the writer's commit time — the fence waits only for transactions that
	// began before the commit's clock tick — eliminating the grace-period
	// "extended delays" of §III-A (a §II-D future-work optimization).
	CapFenceAtCommit bool
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
}

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

// STM is one transactional memory instance: a heap, its metadata, and an
// algorithm. Create with New; register worker threads with NewThread.
type STM struct {
	cfg Config
	rt  *core.Runtime
	// engine is the algorithm's policy, held by value so Tx.Load and
	// Tx.Store call its methods statically.
	engine core.Policy
}

// New creates an STM instance.
func New(cfg Config) (*STM, error) {
	if uint64(cfg.HeapWords) > math.MaxUint32 {
		return nil, fmt.Errorf("stm: HeapWords %d above 2^32 (Private holds 32-bit addresses)", cfg.HeapWords)
	}
	rt, err := core.NewRuntime(core.Options{
		HeapWords:        cfg.HeapWords,
		OrecCount:        cfg.OrecCount,
		BlockWords:       cfg.BlockWords,
		MaxThreads:       cfg.MaxThreads,
		MaxGrace:         cfg.MaxGrace,
		HybridThreshold:  cfg.HybridThreshold,
		CapFenceAtCommit: cfg.CapFenceAtCommit,
		MaxAttempts:      cfg.MaxAttempts,
		StallThreshold:   cfg.StallThreshold,
		OnStall:          cfg.OnStall,
	})
	if err != nil {
		return nil, err
	}
	s := &STM{cfg: cfg, rt: rt}
	switch cfg.Algorithm {
	case TL2:
		s.engine = core.TL2
	case Ord:
		s.engine = core.Ord
	case Val:
		s.engine = core.Val
	case PVRBase:
		s.engine = core.PVRBase
	case PVRCAS:
		s.engine = core.PVRCAS
	case PVRStore:
		s.engine = core.PVRStore
	case PVRWriterOnly:
		s.engine = core.PVRWriterOnly
	case PVRHybrid:
		s.engine = core.PVRHybrid
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

// Private is the only uninstrumented access to transactional memory: a
// handle on one extent of words that its holder owns outright. Its Load
// and Store are plain, unlogged word accesses, bounds-checked against the
// extent, and cost what a slice access costs. There are exactly two ways
// to get one: Thread.Privatize, after a committed transaction detached the
// extent, and STM.Quiescent, for the whole heap while no Thread is open.
// A zero Private is an empty extent; every access to it panics.
//
// The handle carries the privatizing commit's timestamp, the instant from
// which the extent is private. What it cannot check is that the commit
// really detached the extent (CORRECTNESS.md §12), or that the holder stops
// using it once it has published the extent again or retired it.
//
// Addresses and sizes are held in 32 bits (New caps the heap at 2^32
// words), so a handle is three words: copied by value on every Follow, and
// returned by value inside tds.PrivateList.
type Private struct {
	h     *heap.Heap
	base  uint32
	words uint32
	ts    uint64
}

// Base returns the extent's first address, Nil for an empty handle.
func (p Private) Base() Addr { return Addr(p.base) }

// Words returns the extent's size in words, 0 for an empty handle.
func (p Private) Words() int { return int(p.words) }

// Load reads the word at offset off of the extent. It panics if off is
// outside the extent.
func (p Private) Load(off Addr) Word {
	if off >= Addr(p.words) {
		panic("stm: Private access outside its extent")
	}
	return p.h.Load(Addr(p.base) + off)
}

// Store writes the word at offset off of the extent. It panics if off is
// outside the extent.
func (p Private) Store(off Addr, w Word) {
	if off >= Addr(p.words) {
		panic("stm: Private access outside its extent")
	}
	p.h.Store(Addr(p.base)+off, w)
}

// Follow reads the pointer word at offset off and returns a handle on the
// words-word extent it points at: whatever is reachable from a private
// extent is private too, which is how a detached chain is walked. The
// pointer's top bit is a mark that linked structures may set (a Harris-style
// deleted flag) and is ignored. A Nil pointer yields an empty handle; one
// beyond any heap panics.
func (p Private) Follow(off Addr, words int) Private {
	a := p.Load(off) &^ markBit
	if a>>32 != 0 {
		panic("stm: Follow of a pointer outside the heap")
	}
	n := uint32(words)
	if a == 0 {
		n = 0
	}
	return Private{h: p.h, base: uint32(a), words: n, ts: p.ts}
}

// markBit is the pointer-word bit Follow ignores.
const markBit = 1 << 63

// ErrThreadsOpen is returned by Quiescent while some Thread is still open.
var ErrThreadsOpen = errors.New("stm: Quiescent with a Thread still open")

// Quiescent calls fn with a handle on the whole heap, at offsets equal to
// addresses, provided no Thread is open; otherwise it returns
// ErrThreadsOpen without calling fn. NewThread waits until fn returns, so
// nothing fn does can race with a transaction. It serves setup before the
// first thread exists and checks after the last one has closed. The handle
// must not outlive fn, and fn must not call NewThread or Quiescent.
func (s *STM) Quiescent(fn func(Private)) error {
	h := s.rt.Heap
	if !s.rt.Quiesce(func() { fn(Private{h: h, words: uint32(h.Size()), ts: s.rt.Clock.Now()}) }) {
		return ErrThreadsOpen
	}
	return nil
}

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

// ErrNothingPrivatized is returned by Privatize when the committed attempt
// of its body wrote nothing: a read-only transaction detaches no data.
var ErrNothingPrivatized = errors.New("stm: privatizing transaction wrote nothing")

// Privatize runs body as a transaction (see Atomic) that detaches an
// extent from shared memory, and returns a Private handle on the extent
// body names: words words from its returned address, Nil for none. The
// handle is returned only after the commit and its privatization fence
// have returned, so under a privatization-safe algorithm no transaction
// can still be reading or writing back into the extent. It returns the
// cancel error of a cancelled body, and ErrNothingPrivatized if the
// committed attempt wrote nothing. Under TL2 the handle is returned all
// the same; the extent may then still race (the paper's Figure 1).
func (th *Thread) Privatize(body func(tx *Tx) (Addr, int)) (Private, error) {
	var base Addr
	var words int
	var wrote bool
	err := th.Atomic(func(tx *Tx) {
		base, words = body(tx)
		wrote = tx.WriteSetLen() > 0
	})
	if err != nil {
		return Private{}, err
	}
	if !wrote {
		return Private{}, ErrNothingPrivatized
	}
	if words < 0 || !th.s.rt.Heap.Contains(base) {
		panic("stm: Privatize of an extent outside the heap")
	}
	if base == Nil {
		words = 0
	}
	return Private{h: th.s.rt.Heap, base: uint32(base), words: uint32(words), ts: th.t.LastCommitTS}, nil
}

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
		return core.Run(&th.s.engine, th.t, func() { body(&th.tx) })
	}
	attempt := Word(0)
	err := core.Run(&th.s.engine, th.t, func() {
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

// ReadSetLen reports how many reads the transaction has logged so far: one
// per read that missed the same-block memo, so a block read again after
// another block counts again (weak reads are unlogged and not counted).
// Servers use it to enforce per-tenant read-set quotas via Cancel.
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
