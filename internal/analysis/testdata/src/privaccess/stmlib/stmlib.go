// Package stmlib holds the privaccess fixture's in-module stand-ins for
// the stm API surface the analyzer recognizes by name and shape: a handle
// named Private with the uninstrumented Load/Store/Follow accessors and
// Base, a transaction handle named Tx, and a Thread whose Atomic and
// Privatize methods mark transaction bodies and whose Retire hands an
// extent to the reclaimer. It lives in its own package so both the
// fixture and its cross-package wrapper can import it without a cycle.
package stmlib

// Addr is the stand-in for stm.Addr.
type Addr uintptr

// Nil is the null address.
const Nil Addr = 0

// Private is the stand-in for stm.Private: the only uninstrumented door.
type Private struct {
	mem  map[Addr]uint64
	base Addr
}

// Base returns the extent's first address.
func (p Private) Base() Addr { return p.base }

// Load reads a word of the extent without instrumentation.
func (p Private) Load(off Addr) uint64 { return p.mem[p.base+off] }

// Store writes a word of the extent without instrumentation.
func (p Private) Store(off Addr, v uint64) { p.mem[p.base+off] = v }

// Follow returns a handle on the extent the pointer word at off names.
func (p Private) Follow(off Addr, words int) Private {
	return Private{mem: p.mem, base: Addr(p.Load(off))}
}

// Tx is the stand-in transaction handle.
type Tx struct{ mem map[Addr]uint64 }

// LoadAddr reads an address word transactionally.
func (tx *Tx) LoadAddr(a Addr) Addr { return Addr(tx.mem[a]) }

// StoreAddr writes an address word transactionally.
func (tx *Tx) StoreAddr(a Addr, v Addr) { tx.mem[a] = uint64(v) }

// Thread is the stand-in for stm.Thread.
type Thread struct{ mem map[Addr]uint64 }

// Atomic pretends to run body as one transaction.
func (t *Thread) Atomic(body func(tx *Tx)) error {
	body(&Tx{mem: t.mem})
	return nil
}

// Privatize pretends to run body as the transaction that detaches the
// extent it returns, and hands out the extent.
func (t *Thread) Privatize(body func(tx *Tx) (Addr, int)) (Private, error) {
	base, _ := body(&Tx{mem: t.mem})
	return Private{mem: t.mem, base: base}, nil
}

// Retire is the stand-in for stm.Thread.Retire: it hands the n-word extent
// at a to the epoch-based reclaimer for eventual poisoning and reuse.
func (t *Thread) Retire(a Addr, n int) { delete(t.mem, a) }
