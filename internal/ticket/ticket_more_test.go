package ticket

import (
	"sync"
	"testing"
	"time"
)

// TestTicketDistantWaiterSleeps drives the proportional-sleep branch: many
// waiters queue up at once; all must be served exactly once, in order.
func TestTicketDistantWaiterSleeps(t *testing.T) {
	var l Lock
	const waiters = 16
	var order []uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	tickets := make([]uint64, waiters)
	for i := range tickets {
		tickets[i] = l.Take() // all tickets issued before anyone waits
	}
	for _, tk := range tickets {
		wg.Add(1)
		go func(tk uint64) {
			defer wg.Done()
			l.Wait(tk) // most waiters observe a large distance
			mu.Lock()
			order = append(order, tk)
			mu.Unlock()
			time.Sleep(100 * time.Microsecond) // hold long enough to queue sleepers
			l.Done(tk)
		}(tk)
	}
	wg.Wait()
	for i, tk := range order {
		if tk != uint64(i) {
			t.Fatalf("service order[%d] = %d", i, tk)
		}
	}
}

func TestTicketServed(t *testing.T) {
	var l Lock
	a := l.Take()
	if !l.Served(a) {
		t.Error("first ticket should be served immediately")
	}
	b := l.Take()
	if l.Served(b) {
		t.Error("second ticket served early")
	}
	l.Done(a)
	if !l.Served(b) {
		t.Error("second ticket not served after Done")
	}
	l.Done(b)
}
