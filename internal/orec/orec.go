// Package orec implements ownership records (orecs) — the per-block
// conflict-detection metadata of the paper's word-based STM (§II-A), with
// the partial-visibility extensions of Figure 2:
//
//	(a) owner word:  write timestamp (wts) or owning transaction
//	(b) read timestamp (rts)
//	(c) last-reader transaction ID (tid) + multiple-readers bit
//	(d) per-orec grace period
//
// The rts and tid fields live in one 64-bit word so that they are always
// read and written "together in a single load/store" as §II-E requires.
package orec

import (
	"sync/atomic"
	"unsafe"
)

// Field packing.
//
// owner word: wts<<1 (even → unowned) or tid<<1|1 (odd → owned).
//
// vis word:   rts<<24 | tid<<1 | multi. rts gets 40 bits (≈10^12 commits
// before saturation — unreachable in practice); tid gets 23 bits; bit 0 is
// the multiple-concurrent-readers flag.
const (
	visTIDBits = 23
	visRTSMask = (uint64(1) << (64 - visTIDBits - 1)) - 1

	// MaxTID is the largest transaction/thread ID representable in the
	// vis word.
	MaxTID = (1 << visTIDBits) - 1
)

// PackUnowned encodes an unowned owner word carrying write timestamp wts.
func PackUnowned(wts uint64) uint64 { return wts << 1 }

// PackOwned encodes an owner word held by transaction tid.
func PackOwned(tid uint64) uint64 { return tid<<1 | 1 }

// IsOwned reports whether the owner word encodes ownership.
func IsOwned(w uint64) bool { return w&1 == 1 }

// WTS extracts the write timestamp from an unowned owner word.
func WTS(w uint64) uint64 { return w >> 1 }

// OwnerTID extracts the owner transaction ID from an owned owner word.
func OwnerTID(w uint64) uint64 { return w >> 1 }

// PackVis encodes the (rts, tid, multi) triple into one vis word.
func PackVis(rts, tid uint64, multi bool) uint64 {
	v := (rts&visRTSMask)<<(visTIDBits+1) | (tid&MaxTID)<<1
	if multi {
		v |= 1
	}
	return v
}

// UnpackVis decodes a vis word.
func UnpackVis(v uint64) (rts, tid uint64, multi bool) {
	return v >> (visTIDBits + 1), (v >> 1) & MaxTID, v&1 == 1
}

// VisRTS extracts just the read timestamp.
func VisRTS(v uint64) uint64 { return v >> (visTIDBits + 1) }

// VisTID extracts just the last-reader transaction ID.
func VisTID(v uint64) uint64 { return (v >> 1) & MaxTID }

// VisMulti extracts the multiple-readers bit.
func VisMulti(v uint64) bool { return v&1 == 1 }

// Orec is a single ownership record: the two hot words of Figure 2, (a)
// and (b,c), in 16 bytes, so four records share a 64-byte line. The grace
// period (d) is read only on a full visibility update and written only by
// the grace adapters, so it lives in its Table's cold column
// (Table.Grace), not here. Records live in their Table's backing array and
// never move, so a *Orec is a stable identity (read-set entries and the
// acquired log compare handles), and both accessors are a constant offset
// from it: For(addr) → record → word touches one cache line and performs
// no load beyond the word itself.
//
// Records that share a line guard unrelated blocks (the table scatters
// block numbers with a Fibonacci hash), so a writer's owner CAS and
// another thread's vis CAS meet on one line only where the scatter puts
// two hot blocks' records together; the smaller the table, the likelier.
//
// Callers use the accessor methods as the record's fields (o.Vis().Load(),
// o.Owner().CompareAndSwap(...)); the returned *atomic.Uint64 must not be
// retained beyond the expression or loop using it.
type Orec struct {
	owner, vis atomic.Uint64
}

// Owner is the wts-or-owning-txn word (Fig. 2a).
func (o *Orec) Owner() *atomic.Uint64 { return &o.owner }

// Vis is the rts|tid|multi word (Fig. 2b,c).
func (o *Orec) Vis() *atomic.Uint64 { return &o.vis }

// Index returns the record's address divided by its size: a hash key for
// per-transaction containers (the publication log), distinct for every
// record of one table because records are 16 bytes apart and never move.
// It is not a table slot; Table.Slot is.
func (o *Orec) Index() uint32 { return uint32(uintptr(unsafe.Pointer(o)) / unsafe.Sizeof(Orec{})) }
