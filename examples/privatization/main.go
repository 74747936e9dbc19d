// Privatization: the paper's Figure 1, end to end.
//
// A shared linked list is truncated inside a transaction (Thread.Privatize).
// After the commit the detached nodes are private: the privatizer walks them
// through the stm.Private handle it got back, with ordinary, uninstrumented
// loads and stores, while other threads keep running transactions against
// the (now empty) list. Under any of the privatization-safe algorithms this
// is correct: the committing truncation waits at the privatization fence
// until every conflicting concurrent reader has drained.
//
//	go run ./examples/privatization
package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

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

	// Build a list of 10 nodes: head -> 0 -> 1 -> ... -> 9. No thread is
	// open yet, so the whole heap is private to this goroutine.
	head := s.MustAlloc(1)
	if err := s.Quiescent(func(h stm.Private) {
		prev := head
		for i := 0; i < 10; i++ {
			n := s.MustAlloc(nodeW)
			h.Store(n+fVal, stm.Word(i))
			h.Store(prev, stm.Word(n)) // prev.next = n (head doubles as a next field)
			prev = n + fNext
		}
	}); err != nil {
		panic(err)
	}

	// T2-style workers: transactionally sum the list, forever. Each one
	// reports its first commit, so the truncation below overlaps every
	// worker and the fence has someone to wait for.
	var stop atomic.Bool
	var wg, ready sync.WaitGroup
	var observedSums sync.Map
	for w := 0; w < 3; w++ {
		th := s.MustNewThread()
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			for first := true; !stop.Load(); first = false {
				var sum stm.Word
				_ = th.Atomic(func(tx *stm.Tx) {
					sum = 0
					for n := tx.LoadAddr(head); n != stm.Nil; n = tx.LoadAddr(n + fNext) {
						sum += tx.Load(n + fVal)
					}
				})
				observedSums.Store(sum, true)
				if first {
					ready.Done()
				}
			}
		}()
	}
	ready.Wait()

	// T1, the privatizer: truncate the list transactionally. Privatize
	// hands back the detached chain only after the commit and its fence.
	priv := s.MustNewThread()
	pl, err := priv.Privatize(func(tx *stm.Tx) (stm.Addr, int) {
		first := tx.LoadAddr(head)
		tx.StoreAddr(head, stm.Nil)
		return first, nodeW
	})
	if err != nil {
		panic(err)
	}
	// ...then process the detached nodes with PLAIN loads and stores. No
	// instrumentation, no atomics: the fence guaranteed nobody else can
	// still be touching these nodes, and Follow walks from node to node.
	count := 0
	var privSum stm.Word
	for n := pl; n.Base() != stm.Nil; n = n.Follow(fNext, nodeW) {
		privSum += n.Load(fVal)
		n.Store(fVal, n.Load(fVal)*10) // private mutation
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
