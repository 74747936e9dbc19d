// Package heap implements the simulated transactional memory that stands in
// for the raw process address space of the paper's C implementation.
//
// The paper's STM is word-based: every transactional load/store targets a
// machine word, and conflict detection hashes the word's address into a
// table of ownership records (§II-A). We reproduce that model with a flat
// array of 64-bit words indexed by Addr. Transactional code accesses words
// with sync/atomic (Go requires it when racing instrumented accesses are
// possible); *privatized* data is accessed with plain loads and stores —
// the zero-overhead access the paper identifies as the whole point of
// privatization.
//
// Allocation is quantized to the conflict-detection block (§II-A: "small,
// contiguous, fixed-size blocks of memory"): the heap is built with the
// orec table's BlockWords as its quantum, every extent starts on a block
// boundary and occupies a whole number of blocks. Two distinct extents
// therefore never share an orec's block, and an object no larger than a
// block sits under exactly one orec — with the default 2-word (16-byte)
// quantum, malloc's own, both words of a list node share their metadata.
// Block 0 holds the nil address and is never handed out. The accounting
// (InUse, Stats) counts address space, i.e. rounded sizes.
package heap

import (
	"errors"
	"fmt"
	"sync/atomic"

	"privstm/internal/failpoint"
	"privstm/internal/spin"
)

// ErrOutOfMemory is the sentinel wrapped by Alloc's exhaustion error;
// long-running workloads match it with errors.Is to distinguish running out
// of address space (expected when reclamation is ablated away) from bugs.
var ErrOutOfMemory = errors.New("heap: out of memory")

// Addr is the address of one word in a Heap. Address 0 is reserved as the
// nil address and is never returned by Alloc.
type Addr uint64

// Nil is the reserved null address.
const Nil Addr = 0

// DefaultQuantum is the allocation quantum of New, and the runtime's default
// conflict-detection block: 2 words = 16 bytes, the smallest node any
// container in this repository allocates.
const DefaultQuantum = 2

// Word is the unit of transactional access.
type Word uint64

// maxSizeClass is the largest rounded extent size (in words) with a
// dedicated exact-fit free stack; larger extents share one overflow list.
// Every workload node in this repository is ≤ 4 words, so the classed
// stacks cover the hot path with an O(1) pop.
const maxSizeClass = 16

// extent is one freed run of words parked on the overflow free list.
type extent struct {
	base Addr
	n    uint64 // rounded size
}

// Heap is a flat, fixed-size word-addressed memory.
//
// Transactional accesses must use AtomicLoad/AtomicStore/CAS; accesses to
// data known to be private may use Load/Store. Mixing the two on the same
// word concurrently is a data race — exactly the race the privatization
// techniques in this repository exist to prevent.
type Heap struct {
	words []uint64
	qmask uint64        // allocation quantum − 1 (the quantum is a power of two)
	next  atomic.Uint64 // bump pointer for Alloc, always a multiple of the quantum

	// Free-list state. Freed extents are recycled exact-size only, by their
	// rounded size (no splitting or coalescing): the workloads allocate
	// fixed-size nodes, so exact fit is both O(1) and fragmentation-free.
	// freeWords fronts the lock: Alloc skips the free list entirely (one
	// atomic load) while nothing has ever been freed, keeping the bump path
	// as cheap as before reclamation existed.
	freeMu    spin.Mutex
	freeClass [maxSizeClass + 1][]Addr // [r] → stack of freed extents of rounded size r
	freeBig   []extent                 // extents larger than maxSizeClass
	freeWords atomic.Uint64            // words currently parked on the free list

	freedWords  atomic.Uint64 // cumulative words passed to Free
	reusedWords atomic.Uint64 // cumulative words re-handed-out by Alloc
}

// Stats is a point-in-time snapshot of the heap's allocation accounting.
// Every count is address space: an extent weighs its size rounded up to the
// quantum, whatever size its caller asked for.
type Stats struct {
	CapWords    int    // heap capacity in words
	BumpWords   uint64 // words handed out by the bump pointer (incl. the nil block)
	FreedWords  uint64 // cumulative words returned with Free
	ReusedWords uint64 // cumulative words Alloc served from the free list
	FreeWords   uint64 // words currently parked on the free list
}

// Stats snapshots the allocation counters. Counters are monotone and
// individually atomic; a snapshot taken while allocators run is internally
// consistent enough for reporting (exact after workers join).
func (h *Heap) Stats() Stats {
	return Stats{
		CapWords:    len(h.words),
		BumpWords:   h.next.Load(),
		FreedWords:  h.freedWords.Load(),
		ReusedWords: h.reusedWords.Load(),
		FreeWords:   h.freeWords.Load(),
	}
}

// New creates a heap of the given number of words with the default
// allocation quantum.
func New(words int) *Heap { return NewQuantum(words, DefaultQuantum) }

// NewQuantum creates a heap whose extents start on multiples of quantum
// words and occupy whole quanta (quantum is rounded up to a power of two,
// minimum 1; the runtime passes its orec table's BlockWords). The capacity
// is at least two quanta: the nil block plus one usable block.
func NewQuantum(words, quantum int) *Heap {
	q := 1
	for q < quantum {
		q <<= 1
	}
	if words < 2*q {
		words = 2 * q
	}
	h := &Heap{words: make([]uint64, words), qmask: uint64(q - 1)}
	h.next.Store(uint64(q)) // block 0 holds the nil address
	return h
}

// Quantum returns the allocation quantum in words.
func (h *Heap) Quantum() int { return int(h.qmask) + 1 }

// round sizes an n-word request up to a whole number of quanta.
func (h *Heap) round(n int) uint64 { return (uint64(n) + h.qmask) &^ h.qmask }

// Size returns the heap capacity in words.
func (h *Heap) Size() int { return len(h.words) }

// Alloc reserves n contiguous zeroed words and returns the address of the
// first — always a multiple of the quantum — preferring a free-list extent
// of the same rounded size over fresh bump space. Free list entries come
// from Free, which in this repository is called only by the epoch-based
// reclaimer (internal/reclaim) — so by the time Alloc re-hands an extent
// out, no incomplete transaction can still reach it (CORRECTNESS.md §14).
func (h *Heap) Alloc(n int) (Addr, error) {
	if n <= 0 {
		return Nil, fmt.Errorf("heap: Alloc(%d): non-positive size", n)
	}
	r := h.round(n)
	if h.freeWords.Load() > 0 {
		if a, ok := h.popFree(r); ok {
			failpoint.Eval(failpoint.HeapReuse)
			// Zero with atomic stores: a doomed reader that captured the
			// extent's address before it was retired may still issue
			// instrumented loads against it (its validation will reject
			// them, but the loads themselves must stay race-clean).
			for i := 0; i < n; i++ {
				atomic.StoreUint64(&h.words[a+Addr(i)], 0)
			}
			h.reusedWords.Add(r)
			return a, nil
		}
	}
	for {
		base := h.next.Load()
		if base+r > uint64(len(h.words)) {
			return Nil, fmt.Errorf("%w (cap %d words, want %d more)", ErrOutOfMemory, len(h.words), r)
		}
		if h.next.CompareAndSwap(base, base+r) {
			return Addr(base), nil
		}
	}
}

// popFree removes and returns a free extent of rounded size r, if one
// exists.
func (h *Heap) popFree(r uint64) (Addr, bool) {
	h.freeMu.Lock()
	defer h.freeMu.Unlock()
	if r <= maxSizeClass {
		stack := h.freeClass[r]
		if len(stack) == 0 {
			return Nil, false
		}
		a := stack[len(stack)-1]
		h.freeClass[r] = stack[:len(stack)-1]
		h.freeWords.Add(^(r - 1)) // subtract r
		return a, true
	}
	for i, e := range h.freeBig {
		if e.n == r {
			h.freeBig[i] = h.freeBig[len(h.freeBig)-1]
			h.freeBig = h.freeBig[:len(h.freeBig)-1]
			h.freeWords.Add(^(r - 1))
			return e.base, true
		}
	}
	return Nil, false
}

// Free returns the extent Alloc(n) handed out at a to the free list for
// reuse by a later Alloc of the same rounded size. The caller must
// guarantee that no incomplete transaction can still reach the extent — in
// this repository that proof is the reclaimer's epoch check
// (internal/reclaim); workloads must never call Free directly on addresses
// that were ever shared. Freeing out-of-range or misaligned extents panics:
// a wild free is a bug in the caller, not a recoverable condition.
func (h *Heap) Free(a Addr, n int) {
	r := h.round(n)
	if n <= 0 || uint64(a) == 0 || uint64(a)&h.qmask != 0 || uint64(a)+r > h.next.Load() {
		panic(fmt.Sprintf("heap: Free(%d, %d): extent not allocated (bump=%d, quantum=%d)", a, n, h.next.Load(), h.Quantum()))
	}
	h.freeMu.Lock()
	if r <= maxSizeClass {
		h.freeClass[r] = append(h.freeClass[r], a)
	} else {
		h.freeBig = append(h.freeBig, extent{base: a, n: r})
	}
	h.freeMu.Unlock()
	h.freeWords.Add(r)
	h.freedWords.Add(r)
}

// MustAlloc is Alloc that panics on exhaustion; used by workloads whose
// sizing is known up front.
func (h *Heap) MustAlloc(n int) Addr {
	a, err := h.Alloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// InUse returns the number of words the bump pointer has handed out so far
// (including the reserved nil block and every extent's rounding to the
// quantum). Freed-and-parked words still count: InUse measures
// address-space consumption, not live data.
func (h *Heap) InUse() int { return int(h.next.Load()) }

// Contains reports whether a addresses a word inside the heap. The sandbox
// checkpoint (core.Thread.CheckAddr) uses it to pre-validate addresses
// computed from transactionally-read data before indexing the word array.
func (h *Heap) Contains(a Addr) bool { return uint64(a) < uint64(len(h.words)) }

// AtomicLoad reads a word with atomic (acquire) semantics. Use for all
// transactional reads.
func (h *Heap) AtomicLoad(a Addr) Word {
	return Word(atomic.LoadUint64(&h.words[a]))
}

// AtomicStore writes a word with atomic (release) semantics. Use for all
// transactional writes, undo-log rollbacks and redo-log write-backs.
func (h *Heap) AtomicStore(a Addr, w Word) {
	atomic.StoreUint64(&h.words[a], uint64(w))
}

// AtomicAdd atomically adds d to the word at a and returns the new value.
// It is the commit-path primitive for commuting (delta) updates — counter
// words maintained by the semantic layer (internal/tds): concurrent commits
// apply their deltas in any order without conflicting. Negative deltas are
// expressed in two's complement (Word arithmetic wraps).
func (h *Heap) AtomicAdd(a Addr, d Word) Word {
	return Word(atomic.AddUint64(&h.words[a], uint64(d)))
}

// Load reads a word with plain semantics. Only correct for data the caller
// privately owns (e.g. after privatization).
//
//stmlint:ignore mixedatomic zero-overhead access to privatized words is the point of the paper; callers must guarantee privacy
func (h *Heap) Load(a Addr) Word { return Word(h.words[a]) }

// Store writes a word with plain semantics. Only correct for privately
// owned data.
//
//stmlint:ignore mixedatomic zero-overhead access to privatized words is the point of the paper; callers must guarantee privacy
func (h *Heap) Store(a Addr, w Word) { h.words[a] = uint64(w) }
