package core

import (
	"privstm/internal/clock"
	"privstm/internal/failpoint"
	"privstm/internal/txnlist"
)

// SlotTracker is the runtime's incomplete-transaction tracker (§II-C): the
// "lighter weight implementation of the central list" that the paper
// leaves as future work. Each begin/end is one uncontended store into the
// thread's padded slot (txnlist.Slots), and oldest lookups read a cached,
// monotonically advancing watermark; the slot scan runs only when the
// cached holder exits. Thread IDs index the slot array directly.
//
// Correctness requirement: a transaction publishes itself before its first
// read, so any writer whose commit-time scan runs after a reader's
// visibility hint also observes that reader as incomplete.
//
// Enter, EnterAt and Leave each evaluate the matching failpoint after the
// registration transition completes, so the schedule explorer can order
// other workers against tracker entry and exit; the disabled cost is one
// failpoint.Eval nil-check per transition. The queries (OldestBegin etc.)
// carry no yield point of their own: they run inside fence wait loops that
// already have one.
type SlotTracker struct {
	clock *clock.Clock // the runtime's global clock, sampled by Enter
	slots *txnlist.Slots
}

// Enter samples the clock and publishes into the thread's slot (see
// txnlist.Slots.Enter for why no lock is needed), then yields at
// TrackerEnter.
func (st *SlotTracker) Enter(t *Thread) uint64 {
	ts := st.slots.Enter(int(t.ID), st.clock)
	failpoint.Eval(failpoint.TrackerEnter)
	return ts
}

// EnterAt registers t under a previously assigned timestamp (late joiners:
// pvrWriterOnly first writes, hybrid mode switches, weak-read epoch pins),
// lowering the watermark to cover it, then yields at TrackerEnterAt.
func (st *SlotTracker) EnterAt(t *Thread, ts uint64) {
	st.slots.EnterAt(int(t.ID), ts)
	failpoint.Eval(failpoint.TrackerEnterAt)
}

// Leave deregisters t after its commit/abort protocol — including undo-log
// rollback — completes, then yields at TrackerLeave. The watermark
// recomputes lazily.
func (st *SlotTracker) Leave(t *Thread) {
	st.slots.Leave(int(t.ID))
	failpoint.Eval(failpoint.TrackerLeave)
}

// OldestBegin returns a lower bound on the begin timestamp of the oldest
// incomplete transaction, and whether any is incomplete: the
// cached-watermark fast path.
func (st *SlotTracker) OldestBegin() (uint64, bool) { return st.slots.OldestBegin() }

// OldestOtherBegin is OldestBegin excluding t.
func (st *SlotTracker) OldestOtherBegin(t *Thread) (uint64, bool) {
	return st.slots.OldestOtherBegin(int(t.ID))
}

// Count scans for registered transactions (tests and statistics).
func (st *SlotTracker) Count() int { return st.slots.Len() }

// CheckWatermark forwards the slots' watermark-soundness check, for the
// schedule explorer's oracles. It is safe to call while transactions run;
// the explorer calls it with every worker suspended so a reported
// violation is a real state, not a torn read.
func (st *SlotTracker) CheckWatermark() error { return st.slots.CheckWatermark() }
