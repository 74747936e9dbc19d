// Privatization: the paper's Figure 1, end to end.
//
// A shared linked list is truncated inside a transaction — after the commit
// the detached nodes are logically private, and the privatizer processes
// them with ordinary, uninstrumented loads and stores while other threads
// keep running transactions against the (now empty) list. Under any of the
// privatization-safe algorithms this is correct: the committing truncation
// waits at the privatization fence until every conflicting concurrent
// reader has drained.
//
//	go run ./examples/privatization
package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	stm "privstm"
)

// Node layout: [next, value].
const (
	fNext = 0
	fVal  = 1
	nodeW = 2
)

func main() {
	s := stm.MustNew(stm.Config{
		Algorithm:  stm.PVRCAS,
		HeapWords:  1 << 16,
		MaxThreads: 4,
	})

	// Build a list of 10 nodes: head -> 0 -> 1 -> ... -> 9.
	head := s.MustAlloc(1)
	var prev stm.Addr = head
	for i := 0; i < 10; i++ {
		n := s.MustAlloc(nodeW)
		s.DirectStore(n+fVal, stm.Word(i))
		s.DirectStore(prev, stm.Word(n)) // prev.next = n (head doubles as a next field)
		prev = n + fNext
	}

	// T2-style workers: transactionally sum the list, forever.
	var stop atomic.Bool
	var wg sync.WaitGroup
	var observedSums sync.Map
	for w := 0; w < 3; w++ {
		th := s.MustNewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				var sum stm.Word
				_ = th.Atomic(func(tx *stm.Tx) {
					sum = 0
					for n := tx.LoadAddr(head); n != stm.Nil; n = tx.LoadAddr(n + fNext) {
						sum += tx.Load(n + fVal)
					}
				})
				observedSums.Store(sum, true)
			}
		}()
	}

	// Let the workers overlap the truncation so the fence has someone to
	// wait for.
	time.Sleep(20 * time.Millisecond)

	// T1, the privatizer: truncate the list transactionally...
	priv := s.MustNewThread()
	var pl stm.Addr
	_ = priv.Atomic(func(tx *stm.Tx) {
		pl = tx.LoadAddr(head)
		tx.StoreAddr(head, stm.Nil)
	})
	// ...then process the detached nodes with PLAIN loads and stores. No
	// instrumentation, no atomics: the fence guaranteed nobody else can
	// still be touching these nodes.
	count := 0
	var privSum stm.Word
	for n := pl; n != stm.Nil; n = stm.Addr(s.DirectLoad(n + fNext)) {
		privSum += s.DirectLoad(n + fVal)
		s.DirectStore(n+fVal, s.DirectLoad(n+fVal)*10) // private mutation
		count++
	}
	stop.Store(true)
	wg.Wait()

	fmt.Printf("privatized %d nodes, private sum = %d (want 45)\n", count, privSum)
	fmt.Printf("privatizer fences hit: %d (nonzero only when readers overlapped the commit)\n",
		priv.Stats().Fenced)
	fmt.Print("sums observed by concurrent transactions: ")
	illegal := false
	observedSums.Range(func(k, _ any) bool {
		fmt.Printf("%v ", k)
		if sum := k.(stm.Word); sum != 45 && sum != 0 {
			illegal = true
		}
		return true
	})
	fmt.Println("\n(only 45 — the full list — and 0 — after truncation — are legal)")
	if privSum != 45 || illegal {
		os.Exit(1)
	}
}
