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

import "sync/atomic"

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

// Orec is a single ownership record: the fields (a)–(d) of Figure 2 plus
// the record's table slot, padded to one 64-byte cache line. Records live in
// their Table's backing array and never move, so a *Orec is a stable
// identity (read-set dedup and the acquired log compare handles), and every
// accessor is a constant offset from it: For(addr) → record → word touches
// one cache line and performs no load beyond the word itself.
//
// Callers use the accessor methods as the record's fields (o.Vis().Load(),
// o.Owner().CompareAndSwap(...)); the returned *atomic.Uint64 must not be
// retained beyond the expression or loop using it.
type Orec struct {
	owner, vis, grace atomic.Uint64
	// idx is the record's slot in its Table, fixed at construction.
	idx uint32
	_   [36]byte
}

// Owner is the wts-or-owning-txn word (Fig. 2a).
func (o *Orec) Owner() *atomic.Uint64 { return &o.owner }

// Vis is the rts|tid|multi word (Fig. 2b,c).
func (o *Orec) Vis() *atomic.Uint64 { return &o.vis }

// Grace is the grace period in clock steps (Fig. 2d).
func (o *Orec) Grace() *atomic.Uint64 { return &o.grace }

// Index returns the record's table slot. It is the canonical hash key for
// per-transaction containers (read-set dedup, publication log): indices and
// records are in bijection within one table.
func (o *Orec) Index() uint32 { return o.idx }
