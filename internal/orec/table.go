package orec

import (
	"sync/atomic"
	"unsafe"

	"privstm/internal/heap"
)

// Table maps heap addresses to orecs. Conflict detection happens "at the
// granularity of small, contiguous, fixed-size blocks of memory" (§II-A):
// BlockWords consecutive words share one orec, and block numbers are
// scattered over the table with a Fibonacci multiplicative hash, like the
// Harris–Fraser hashing the paper builds on.
//
// The records are one array of 16-byte Orecs, four to a cache line, and
// the grace periods are a parallel column indexed by slot. Neither is
// written at construction: a fresh record is all zeroes (wts 0, no
// reader, grace 0), so only the pages a workload touches become resident.
type Table struct {
	n          int
	mask       uint64
	blockShift uint

	// base is &recs[0]: For is address arithmetic on it, with Index's mask
	// standing in for the bounds check on the read hot path.
	base  unsafe.Pointer
	recs  []Orec
	grace []atomic.Uint64
}

// NewTable creates a table with at least count orecs (rounded up to a power
// of two) and the given block size in words (also rounded to a power of
// two; minimum 1).
func NewTable(count, blockWords int) *Table {
	n := ceilPow2(count)
	bs := uint(0)
	for 1<<bs < blockWords {
		bs++
	}
	t := &Table{
		n:          n,
		mask:       uint64(n - 1),
		blockShift: bs,
		recs:       make([]Orec, n),
		grace:      make([]atomic.Uint64, n),
	}
	t.base = unsafe.Pointer(&t.recs[0])
	return t
}

// Len returns the number of orecs.
func (t *Table) Len() int { return t.n }

// BlockWords returns the conflict-detection granularity in words.
func (t *Table) BlockWords() int { return 1 << t.blockShift }

// Index returns the table slot for address a. Exported so tests can verify
// that addresses in one block collide and the distribution is uniform.
func (t *Table) Index(a heap.Addr) int {
	block := uint64(a) >> t.blockShift
	return int((block * 0x9e3779b97f4a7c15 >> 17) & t.mask)
}

// For returns the orec guarding address a. Index's mask keeps the slot in
// range, so no bounds check is needed on this hot path.
func (t *Table) For(a heap.Addr) *Orec {
	return (*Orec)(unsafe.Add(t.base, uintptr(t.Index(a))*unsafe.Sizeof(Orec{})))
}

// At returns the orec at slot i.
func (t *Table) At(i int) *Orec { return &t.recs[i] }

// Slot returns the slot of o, a record of this table: At(Slot(o)) == o.
func (t *Table) Slot(o *Orec) int {
	return int((uintptr(unsafe.Pointer(o)) - uintptr(t.base)) / unsafe.Sizeof(Orec{}))
}

// Grace is o's grace period in clock steps (Fig. 2d), from the cold
// column. o must be a record of this table.
func (t *Table) Grace(o *Orec) *atomic.Uint64 { return &t.grace[t.Slot(o)] }

func ceilPow2(n int) int {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
