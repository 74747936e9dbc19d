// fixture_handout.go pins the privatized-handout idiom of the semantic
// containers' escape hatch (tds.Map.PrivateSnapshot / tds.Queue.
// DrainPrivate): a transaction detaches a whole chain with one privatizing
// write, the caller walks the extent uninstrumented, and finishes by
// retiring every node. The clean shape must stay clean; touching a node
// after its Retire must be flagged.
package privaccess

import "privstm/internal/analysis/testdata/src/privaccess/stmlib"

// detach privatizes the chain hanging off head.
func detach(t *stmlib.Thread, head stmlib.Addr) stmlib.Private {
	n, _ := t.Privatize(func(tx *stmlib.Tx) (stmlib.Addr, int) {
		first := tx.LoadAddr(head)
		tx.StoreAddr(head, stmlib.Nil) // privatizing write: detach the chain
		return first, 2
	})
	return n
}

// DrainHandout is the escape-hatch shape internal/tds implements: walk the
// now-private nodes with Follow and retire each one after its last use.
func DrainHandout(t *stmlib.Thread, head stmlib.Addr) uint64 {
	var sum uint64
	for n := detach(t, head); n.Base() != stmlib.Nil; {
		next := n.Follow(0, 2) // clean: privatized chain
		sum += n.Load(1)       // clean: same extent
		t.Retire(n.Base(), 2)
		n = next // reassignment: the loop variable now names the next node
	}
	return sum
}

// DrainUseAfterRetire retires the node before its last read: the value
// read races with the reclaimer's poisoning.
func DrainUseAfterRetire(t *stmlib.Thread, head stmlib.Addr) uint64 {
	n := detach(t, head)
	t.Retire(n.Base(), 2)
	return n.Load(1) // want flagged: retired before the read
}
