// Package ticket provides the global ordering lock used by the strict
// in-order commit schemes of §IV: a ticket/bakery lock, the variant whose
// results the paper reports (§IV found a CLH queue lock performed equally
// well).
//
// The lock supports *split* acquisition: a committing writer takes its
// place in line early ("requests a global ticket lock, i.e., takes a
// ticket"), performs validation and write-back, and only then waits for its
// turn before handing the lock to its successor. That split is what lets
// commit-order agreement overlap with useful work.
package ticket

import (
	"runtime"
	"sync/atomic"
	"time"

	"privstm/internal/failpoint"
)

// Lock is a ticket lock. The zero value is ready to use.
type Lock struct {
	_       [7]uint64
	next    atomic.Uint64
	_       [7]uint64
	serving atomic.Uint64
	_       [7]uint64
}

// Take draws the next ticket. The caller will be served in ticket order.
func (l *Lock) Take() uint64 { return l.next.Add(1) - 1 }

// Served reports whether ticket t is currently being served.
func (l *Lock) Served(t uint64) bool { return l.serving.Load() == t }

// Wait blocks until ticket t is served. The wait discipline matters a lot
// when goroutines outnumber processors: the *next* waiter in line polls
// eagerly (pure yields, no sleeping) so the hand-off from its predecessor
// costs a scheduler pass rather than a sleep quantum, while distant
// waiters sleep in proportion to their distance so they neither starve the
// current holder nor hammer the serving counter.
func (l *Lock) Wait(t uint64) {
	for i := 0; ; i++ {
		s := l.serving.Load()
		if s == t {
			return
		}
		failpoint.Eval(failpoint.OrderWait)
		if d := t - s; d > 1 {
			us := time.Duration(d) * 2 * time.Microsecond
			if us > 200*time.Microsecond {
				us = 200 * time.Microsecond
			}
			time.Sleep(us)
			continue
		}
		if i < 64 {
			spinHot()
		} else {
			runtime.Gosched()
		}
	}
}

//go:noinline
func spinHot() {}

// Done completes service of ticket t and admits the successor.
func (l *Lock) Done(t uint64) { l.serving.Store(t + 1) }

// Acquire is Take followed by Wait — plain mutual exclusion.
func (l *Lock) Acquire() uint64 {
	t := l.Take()
	l.Wait(t)
	return t
}
