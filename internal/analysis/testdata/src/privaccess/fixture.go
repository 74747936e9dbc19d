// Package privaccess is a stmlint test fixture: uninstrumented Private
// access reachable from transaction bodies (rule 1), plus the clean shape
// the rule must not flag.
package privaccess

import (
	"privstm/internal/analysis/testdata/src/privaccess/stmlib"
	"privstm/internal/analysis/testdata/src/privaccess/wrap"
)

// freeLocal is a same-package wrapper over the uninstrumented store.
func freeLocal(p stmlib.Private) {
	p.Store(0, 0)
}

// PrivateInBody references the uninstrumented pair inside a transaction:
// once as a call, once as a method value stored for later use.
func PrivateInBody(t *stmlib.Thread, p stmlib.Private) {
	_ = t.Atomic(func(tx *stmlib.Tx) {
		v := p.Load(0)   // want flagged: uninstrumented load in body
		store := p.Store // want flagged: method value arms the hazard
		store(0, v)
	})
}

// WrappedInBody reaches the uninstrumented store through helpers — one in
// this package, one across a package boundary — inside a Privatize body,
// which is a transaction body too.
func WrappedInBody(t *stmlib.Thread, p stmlib.Private, head stmlib.Addr) {
	_, _ = t.Privatize(func(tx *stmlib.Tx) (stmlib.Addr, int) {
		freeLocal(p) // want flagged: same-package wrapper
		wrap.Free(p) // want flagged: cross-package wrapper
		tx.StoreAddr(head, stmlib.Nil)
		return p.Base(), 2
	})
}

// PrivatizedAccess is the canonical legal idiom (examples/privatization):
// the transaction unlinks the node it returns, and the handle it yields is
// used after the commit — and the privatization fence it implies.
func PrivatizedAccess(t *stmlib.Thread, head stmlib.Addr) uint64 {
	n, _ := t.Privatize(func(tx *stmlib.Tx) (stmlib.Addr, int) {
		first := tx.LoadAddr(head)
		tx.StoreAddr(head, stmlib.Nil) // privatizing write: detach
		return first, 2
	})
	return n.Load(0) // clean: outside the body, behind the commit fence
}
