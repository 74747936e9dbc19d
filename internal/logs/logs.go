// Package logs implements the per-transaction bookkeeping shared by all
// engines: read sets for validation, redo logs for buffered-update engines
// (§IV), undo logs for the in-place PVR engines (§II-A), and the set of
// acquired orecs.
//
// All containers are designed for reuse: a transaction descriptor owns one
// of each, and Reset keeps the backing arrays so steady-state transactions
// allocate nothing.
package logs

import (
	"privstm/internal/failpoint"
	"privstm/internal/heap"
	"privstm/internal/orec"
)

// ReadEntry records one transactional read: which orec covered it and the
// write timestamp observed at read time — all that validation checks.
type ReadEntry struct {
	Orec *orec.Orec
	WTS  uint64
}

// ReadSet is an append-only log of reads: every Add appends one entry, so
// a block read again after other blocks is logged again. Re-reads are not
// merged because the engines' same-block memo (core.Thread.readMemo)
// already skips the re-reads of the block just read, and a duplicate entry
// cannot change what ValidateReads decides (CORRECTNESS.md §8); so Add is
// a plain append that inlines into the read path (make inline-check).
type ReadSet struct {
	entries []ReadEntry
}

// Add logs a read covered by orec o that observed write timestamp wts. The
// address is not logged: validation needs only the orec and its timestamp.
func (rs *ReadSet) Add(o *orec.Orec, _ heap.Addr, wts uint64) {
	rs.entries = append(rs.entries, ReadEntry{Orec: o, WTS: wts})
}

// Len returns the number of logged reads.
func (rs *ReadSet) Len() int { return len(rs.entries) }

// At returns the i-th entry, in logging order.
func (rs *ReadSet) At(i int) *ReadEntry { return &rs.entries[i] }

// Reset empties the log, retaining capacity.
func (rs *ReadSet) Reset() { rs.entries = rs.entries[:0] }

// UndoEntry records a pre-image for in-place writes.
type UndoEntry struct {
	Addr heap.Addr
	Old  heap.Word
}

// Undo is the undo log of an in-place engine. Entries are appended in write
// order and must be rolled back in reverse, so that the oldest pre-image of
// a multiply-written word wins.
type Undo struct {
	entries []UndoEntry
}

// Add logs a pre-image.
func (u *Undo) Add(a heap.Addr, old heap.Word) {
	u.entries = append(u.entries, UndoEntry{Addr: a, Old: old})
}

// Len returns the number of logged pre-images.
func (u *Undo) Len() int { return len(u.entries) }

// Rollback restores all pre-images to h in reverse order using atomic
// stores (concurrent doomed readers may still be loading these words).
func (u *Undo) Rollback(h *heap.Heap) {
	for i := len(u.entries) - 1; i >= 0; i-- {
		failpoint.Eval(failpoint.UndoMidRollback)
		h.AtomicStore(u.entries[i].Addr, u.entries[i].Old)
	}
}

// Reset empties the log, retaining capacity.
func (u *Undo) Reset() { u.entries = u.entries[:0] }

// RedoEntry is one buffered write.
type RedoEntry struct {
	Addr heap.Addr
	Val  heap.Word
}

// Redo is a write buffer with O(1) read-your-writes lookup. Writes to the
// same address overwrite in place, so write-back applies each address once,
// with the latest value. The zero value is an empty log ready to use.
//
// The index is the shared epoch-stamped filter (filter.go) rather than a
// Go map: redo lookup sits on the read hot path of every buffered-update
// engine, and the paper's C systems pay only a few instructions there.
type Redo struct {
	entries []RedoEntry
	f       filter
}

// redoKey condenses an address into the filter's 32-bit key space.
func redoKey(a heap.Addr) uint32 {
	return uint32(uint64(a) * 0x9e3779b97f4a7c15 >> 33)
}

func (r *Redo) keyAt(i int) uint32 { return redoKey(r.entries[i].Addr) }

// Put buffers a write of w to a.
func (r *Redo) Put(a heap.Addr, w heap.Word) {
	if r.f.needGrow(len(r.entries)) {
		r.f.grow(32, len(r.entries), r.keyAt)
	}
	s := r.f.start(redoKey(a))
	for {
		i := r.f.at(s)
		if i < 0 {
			r.f.put(s, len(r.entries))
			r.entries = append(r.entries, RedoEntry{Addr: a, Val: w})
			return
		}
		if e := &r.entries[i]; e.Addr == a {
			e.Val = w
			return
		}
		s = r.f.next(s)
	}
}

// Get returns the buffered value for a, if any.
func (r *Redo) Get(a heap.Addr) (heap.Word, bool) {
	if len(r.entries) == 0 {
		return 0, false
	}
	s := r.f.start(redoKey(a))
	for {
		i := r.f.at(s)
		if i < 0 {
			return 0, false
		}
		if e := &r.entries[i]; e.Addr == a {
			return e.Val, true
		}
		s = r.f.next(s)
	}
}

// Len returns the number of distinct buffered addresses.
func (r *Redo) Len() int { return len(r.entries) }

// At returns the i-th buffered write.
func (r *Redo) At(i int) *RedoEntry { return &r.entries[i] }

// WriteBack flushes every buffered write to h with atomic stores. The
// per-word yield point exposes the partially-written window a privatizer
// must never observe (the fence proofs cover it; the schedule explorer
// attacks it).
func (r *Redo) WriteBack(h *heap.Heap) {
	for i := range r.entries {
		failpoint.Eval(failpoint.RedoWriteBackWord)
		h.AtomicStore(r.entries[i].Addr, r.entries[i].Val)
	}
}

// Reset empties the log, retaining capacity; O(1) via the filter's epoch
// bump.
func (r *Redo) Reset() {
	r.entries = r.entries[:0]
	r.f.reset()
}

// Acquired is the set of orecs a writer owns.
type Acquired struct {
	orecs []*orec.Orec
}

// Add records ownership of o.
func (ac *Acquired) Add(o *orec.Orec) { ac.orecs = append(ac.orecs, o) }

// Len returns the number of owned orecs.
func (ac *Acquired) Len() int { return len(ac.orecs) }

// At returns the i-th owned orec.
func (ac *Acquired) At(i int) *orec.Orec { return ac.orecs[i] }

// ReleaseAll stores wts into every owned orec. A commit releases at its
// commit timestamp, making the updates visible there; an abort releases at
// a fresh clock tick (core.Thread.abort). Per-orec yield point: a schedule
// may interleave other workers between individual releases.
func (ac *Acquired) ReleaseAll(wts uint64) {
	packed := orec.PackUnowned(wts)
	for _, o := range ac.orecs {
		failpoint.Eval(failpoint.OrecRelease)
		o.Owner().Store(packed)
	}
}

// Reset empties the set, retaining capacity.
func (ac *Acquired) Reset() { ac.orecs = ac.orecs[:0] }
