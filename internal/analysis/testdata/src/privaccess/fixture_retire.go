// fixture_retire.go exercises privaccess rule 3: an extent handed to a
// Retire method belongs to the epoch-based reclaimer, so uninstrumented
// access to it afterwards is a use-after-free in waiting — even when the
// access was legal moments earlier through a privatized handle. The clean
// shapes pin the rule's position ordering and its reassignment kill.
package privaccess

import "privstm/internal/analysis/testdata/src/privaccess/stmlib"

// RetireEndsTheLicense privatizes a node (legal access), retires it, and
// then touches it again: the first access is clean, the second is the
// use-after-free the reclamation epoch exists to prevent.
func RetireEndsTheLicense(t *stmlib.Thread, head stmlib.Addr) uint64 {
	n := detach(t, head)
	v := n.Load(0) // clean: privatized, not yet retired
	t.Retire(n.Base(), 2)
	return v + n.Load(0) // want flagged: retired handle
}

// RetiredDerived retires an address and then writes through a whole-heap
// handle (stm.STM.Quiescent's) at an offset derived from it: still inside
// the extent.
func RetiredDerived(t *stmlib.Thread, h stmlib.Private, a stmlib.Addr) {
	t.Retire(a, 2)
	h.Store(a+1, 0) // want flagged: derived from retired address
}

// RetiredIntoWrapper pushes the retired handle through a helper that
// reaches the uninstrumented store — the call graph closes the loophole.
func RetiredIntoWrapper(t *stmlib.Thread, n stmlib.Private) {
	t.Retire(n.Base(), 2)
	freeLocal(n) // want flagged: wrapper reaches Private.Store
}

// ReassignedAfterRetire is the kill shape: after reassignment the variable
// names a different extent, so the later access is legal.
func ReassignedAfterRetire(t *stmlib.Thread, n, fresh stmlib.Private) uint64 {
	t.Retire(n.Base(), 2)
	n = fresh
	return n.Load(0) // clean: reassignment killed the taint
}

// AccessBeforeRetire pins the position ordering: the access precedes the
// retire in source order, so nothing is flagged.
func AccessBeforeRetire(t *stmlib.Thread, n stmlib.Private) uint64 {
	v := n.Load(0)
	t.Retire(n.Base(), 2)
	return v
}

// SuppressedRetire demonstrates the escape hatch for rule 3, with the
// mandatory reason as the proof obligation.
func SuppressedRetire(t *stmlib.Thread, n stmlib.Private) uint64 {
	t.Retire(n.Base(), 2)
	//stmlint:ignore privaccess fixture: single-threaded, collect cannot run concurrently
	return n.Load(0)
}
