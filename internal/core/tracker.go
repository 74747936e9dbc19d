package core

import (
	"privstm/internal/failpoint"
	"privstm/internal/txnlist"
)

// ActiveTracker abstracts "the set of incomplete transactions" that
// privatization fences query. Two implementations are provided:
//
//   - ListTracker wraps the paper's central sorted linked list (§II-C):
//     O(1) oldest lookups, but every transaction begin/end takes a spin
//     lock, which §V identifies as the bottleneck for short transactions.
//
//   - SlotTracker (the default) is a "lighter weight implementation of the
//     central list", which the paper leaves as future work: each begin/end
//     is one uncontended store into the thread's padded slot
//     (txnlist.Slots), and oldest lookups read a cached, monotonically
//     advancing watermark; the slot scan runs only when the cached holder
//     exits.
//
// Correctness requirement shared by both: a transaction publishes
// itself before its first read, so any writer whose commit-time scan runs
// after a reader's visibility hint also observes that reader as incomplete.
// TrackerKind selects the ActiveTracker implementation (Options.Tracker).
type TrackerKind int

const (
	// TrackerSlot is the default: padded per-thread slots plus a cached
	// oldest-begin watermark — O(1) begins, ends, and oldest lookups.
	TrackerSlot TrackerKind = iota
	// TrackerList is the paper's §II-C spin-locked central list, kept for
	// ablations and for reproducing the paper's bottleneck analysis.
	TrackerList
)

type ActiveTracker interface {
	// Enter registers t with a fresh begin timestamp and returns it.
	Enter(t *Thread) uint64
	// EnterAt registers t under a previously assigned timestamp (late
	// joiners: pvrWriterOnly first writes, hybrid mode switches).
	EnterAt(t *Thread, ts uint64)
	// Leave deregisters t after its commit/abort protocol — including
	// undo-log rollback — completes.
	Leave(t *Thread)
	// OldestBegin returns a lower bound on the begin timestamp of the
	// oldest incomplete transaction, and whether any is incomplete.
	OldestBegin() (uint64, bool)
	// OldestOtherBegin is OldestBegin excluding t itself.
	OldestOtherBegin(t *Thread) (uint64, bool)
	// Count returns the number of registered transactions (tests/stats).
	Count() int
}

// yieldTracker decorates an ActiveTracker with the txnlist yield points:
// after each registration transition completes it evaluates the matching
// failpoint, outside any tracker-internal lock, so the schedule explorer
// can order other workers against central-list entry and exit without
// deadlocking a suspended lock holder. NewRuntime installs it around every
// tracker kind; the disabled cost is one failpoint.Eval nil-check per
// transition. Query methods (OldestBegin etc.) pass through untouched —
// they run inside fence wait loops that already carry their own yield
// points.
type yieldTracker struct {
	inner ActiveTracker
}

// Enter registers t and then yields at TrackerEnter.
func (y yieldTracker) Enter(t *Thread) uint64 {
	ts := y.inner.Enter(t)
	failpoint.Eval(failpoint.TrackerEnter)
	return ts
}

// EnterAt registers the late joiner and then yields at TrackerEnterAt.
func (y yieldTracker) EnterAt(t *Thread, ts uint64) {
	y.inner.EnterAt(t, ts)
	failpoint.Eval(failpoint.TrackerEnterAt)
}

// Leave deregisters t and then yields at TrackerLeave.
func (y yieldTracker) Leave(t *Thread) {
	y.inner.Leave(t)
	failpoint.Eval(failpoint.TrackerLeave)
}

// OldestBegin passes through.
func (y yieldTracker) OldestBegin() (uint64, bool) { return y.inner.OldestBegin() }

// OldestOtherBegin passes through.
func (y yieldTracker) OldestOtherBegin(t *Thread) (uint64, bool) {
	return y.inner.OldestOtherBegin(t)
}

// Count passes through.
func (y yieldTracker) Count() int { return y.inner.Count() }

// Unwrap exposes the decorated tracker, so oracles can reach
// implementation-specific invariant checks (e.g. SlotTracker.CheckWatermark).
func (y yieldTracker) Unwrap() ActiveTracker { return y.inner }

// UnwrapTracker peels yield-point decoration off tr, returning the concrete
// tracker underneath (tr itself if undecorated).
func UnwrapTracker(tr ActiveTracker) ActiveTracker {
	for {
		u, ok := tr.(interface{ Unwrap() ActiveTracker })
		if !ok {
			return tr
		}
		tr = u.Unwrap()
	}
}

// ListTracker adapts the §II-C central list.
type ListTracker struct {
	rt   *Runtime
	list *txnlist.List
}

// NewListTracker returns a tracker backed by the central list.
func NewListTracker(rt *Runtime) *ListTracker {
	return &ListTracker{rt: rt, list: txnlist.New()}
}

// Enter assigns a begin timestamp under the list lock and appends.
func (lt *ListTracker) Enter(t *Thread) uint64 { return lt.list.Enter(&t.Node, &lt.rt.Clock) }

// EnterAt sort-inserts a late joiner.
func (lt *ListTracker) EnterAt(t *Thread, ts uint64) { lt.list.EnterAt(&t.Node, ts) }

// Leave unlinks the node.
func (lt *ListTracker) Leave(t *Thread) { lt.list.Remove(&t.Node) }

// OldestBegin reads the head with the lock-free double-check.
func (lt *ListTracker) OldestBegin() (uint64, bool) { return lt.list.OldestBegin() }

// OldestOtherBegin skips t if it is the head.
func (lt *ListTracker) OldestOtherBegin(t *Thread) (uint64, bool) {
	return lt.list.OldestOtherBegin(&t.Node)
}

// Count returns the list length.
func (lt *ListTracker) Count() int { return lt.list.Len() }

// SlotTracker adapts txnlist.Slots: contention-free begins/ends with an
// O(1) cached-watermark oldest lookup. Thread IDs index the slot array
// directly.
type SlotTracker struct {
	rt    *Runtime
	slots *txnlist.Slots
}

// NewSlotTracker returns a tracker with one padded slot per possible
// thread.
func NewSlotTracker(rt *Runtime) *SlotTracker {
	return &SlotTracker{rt: rt, slots: txnlist.NewSlots(len(rt.threads))}
}

// Enter samples the clock and publishes into the thread's slot (see
// txnlist.Slots.Enter for why no lock is needed).
func (st *SlotTracker) Enter(t *Thread) uint64 {
	return st.slots.Enter(int(t.ID), &st.rt.Clock)
}

// EnterAt publishes a late joiner and lowers the watermark to cover it.
func (st *SlotTracker) EnterAt(t *Thread, ts uint64) { st.slots.EnterAt(int(t.ID), ts) }

// Leave clears the slot; the watermark recomputes lazily.
func (st *SlotTracker) Leave(t *Thread) { st.slots.Leave(int(t.ID)) }

// OldestBegin is the cached-watermark fast path.
func (st *SlotTracker) OldestBegin() (uint64, bool) { return st.slots.OldestBegin() }

// OldestOtherBegin is OldestBegin excluding t.
func (st *SlotTracker) OldestOtherBegin(t *Thread) (uint64, bool) {
	return st.slots.OldestOtherBegin(int(t.ID))
}

// Count scans for registered transactions.
func (st *SlotTracker) Count() int { return st.slots.Len() }

// CheckWatermark forwards the slots' watermark-soundness check, for the
// schedule explorer's oracles: reach it through UnwrapTracker(rt.Active).
// It is safe to call while transactions run; the explorer calls it with
// every worker suspended so a reported violation is a real state, not a
// torn read.
func (st *SlotTracker) CheckWatermark() error { return st.slots.CheckWatermark() }
