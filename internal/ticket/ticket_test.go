package ticket

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestTicketOrder(t *testing.T) {
	var l Lock
	t0 := l.Take()
	t1 := l.Take()
	t2 := l.Take()
	if t0 != 0 || t1 != 1 || t2 != 2 {
		t.Fatalf("tickets = %d,%d,%d", t0, t1, t2)
	}
	if !l.Served(0) || l.Served(1) {
		t.Fatal("serving should start at ticket 0")
	}
	l.Wait(t0)
	l.Done(t0)
	if !l.Served(1) {
		t.Fatal("ticket 1 not admitted after Done(0)")
	}
}

func TestTicketMutualExclusionAndFIFO(t *testing.T) {
	var l Lock
	const workers = 8
	const iters = 500
	var inside atomic.Int32
	var order []uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tk := l.Acquire()
				if inside.Add(1) != 1 {
					t.Error("mutual exclusion violated")
				}
				mu.Lock()
				order = append(order, tk)
				mu.Unlock()
				inside.Add(-1)
				l.Done(tk)
			}
		}()
	}
	wg.Wait()
	for i, tk := range order {
		if tk != uint64(i) {
			t.Fatalf("service order[%d] = ticket %d: not FIFO", i, tk)
		}
	}
}

func TestTicketSplitAcquisition(t *testing.T) {
	// A holder may do work between Take and Wait; later tickets are only
	// admitted in order.
	var l Lock
	a := l.Take()
	b := l.Take()
	done := make(chan struct{})
	go func() {
		l.Wait(b)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("ticket b admitted before a completed")
	default:
	}
	l.Wait(a)
	l.Done(a)
	<-done
	l.Done(b)
}
