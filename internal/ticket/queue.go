package ticket

import (
	"runtime"
	"sync/atomic"
	"time"

	"privstm/internal/failpoint"
)

// QueueLock is a CLH-style queue lock with split acquisition, the
// alternative ordering mechanism mentioned in §IV. Each waiter spins on its
// predecessor's flag, so under contention each release wakes exactly one
// successor — in contrast to the ticket lock, where all waiters watch one
// counter.
type QueueLock struct {
	tail atomic.Pointer[QNode]
}

// QNode is one waiter's queue entry. Obtain via Enqueue.
type QNode struct {
	done atomic.Bool
	pred *QNode
}

// NewQueueLock returns a queue lock with an already-released sentinel at
// the tail, so the first Enqueue succeeds without waiting.
func NewQueueLock() *QueueLock {
	l := &QueueLock{}
	sentinel := &QNode{}
	sentinel.done.Store(true)
	l.tail.Store(sentinel)
	return l
}

// Enqueue takes a place in line (the analogue of Lock.Take) and returns the
// caller's node.
func (l *QueueLock) Enqueue() *QNode {
	n := &QNode{}
	n.pred = l.tail.Swap(n)
	return n
}

// Wait blocks until every earlier waiter has released (analogue of
// Lock.Wait). Each waiter watches only its predecessor's flag, so it polls
// eagerly at first (cheap hand-off) and falls back to yields and short
// sleeps so an oversubscribed scheduler can run the predecessor.
func (l *QueueLock) Wait(n *QNode) {
	for i := 0; !n.pred.done.Load(); i++ {
		failpoint.Eval(failpoint.OrderWait)
		switch {
		case i < 64:
			spinHot()
		case i < 512:
			runtime.Gosched()
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
	n.pred = nil // allow the predecessor node to be collected
}

// Done releases the caller's position, admitting the successor.
func (l *QueueLock) Done(n *QNode) { n.done.Store(true) }
