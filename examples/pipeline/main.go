// Pipeline: composable transactions over internal/tds queues, ending in a
// privatized result.
//
// Stage 1 workers pull raw items from a transactional queue, "process"
// them, and push results onto a second queue — each pull+push is ONE
// atomic transaction, so a conflict can never lose or duplicate an item.
// Stage 2 detaches the whole result queue in one privatizing transaction
// (Queue.DrainPrivate) and tallies it with plain, uninstrumented loads:
// the paper's Figure 1 idiom. The run also exercises commit-capped fences.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"os"
	"sync"

	stm "privstm"
	"privstm/internal/tds"
)

const (
	items   = 4000
	workers = 4
)

func main() {
	s := stm.MustNew(stm.Config{
		Algorithm:  stm.PVRCAS,
		HeapWords:  1 << 18,
		MaxThreads: workers + 2,
		// The lock-free slot tracker is the default; commit-capped fences
		// are opt-in:
		CapFenceAtCommit: true,
	})

	raw, err := tds.NewQueue(s)
	if err != nil {
		panic(err)
	}
	done, err := tds.NewQueue(s)
	if err != nil {
		panic(err)
	}
	processed := s.MustAlloc(1)

	// Seed the input queue.
	seeder := s.MustNewThread()
	for i := 0; i < items; i += 100 {
		lo, hi := i, i+100
		if err := seeder.Atomic(func(tx *stm.Tx) {
			for v := lo; v < hi; v++ {
				raw.Push(tx, stm.Word(v))
			}
		}); err != nil {
			panic(err)
		}
	}

	// Stage 1: concurrent transactional workers.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := s.MustNewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				empty := false
				_ = th.Atomic(func(tx *stm.Tx) {
					v, ok := raw.Pop(tx)
					if !ok {
						empty = true
						return
					}
					// "Process": square the item. Pull, compute, push —
					// atomically; an abort retries the whole step.
					done.Push(tx, v*v)
					tx.Store(processed, tx.Load(processed)+1)
				})
				if empty {
					return
				}
			}
		}()
	}
	wg.Wait()

	// Stage 2: tally. One transaction reads the counter; one privatizes
	// the result queue, after which its nodes are walked and retired
	// without instrumentation.
	coord := s.MustNewThread()
	var count int
	_ = coord.Atomic(func(tx *stm.Tx) {
		count = int(tx.Load(processed))
	})
	results, err := done.DrainPrivate(coord)
	if err != nil {
		panic(err)
	}
	drained := results.Count
	var sum uint64
	results.EachValue(func(v stm.Word) bool {
		sum += uint64(v)
		return true
	})
	results.Retire(coord)

	var want uint64
	for v := 0; v < items; v++ {
		want += uint64(v) * uint64(v)
	}
	fmt.Printf("items processed: %d, drained %d (want %d)\n", count, drained, items)
	fmt.Printf("sum of squares:  %d (want %d)\n", sum, want)
	fmt.Printf("worker aborts:   transparent — none observable here\n")
	if count != items || drained != items || sum != want {
		fmt.Println("MISMATCH — isolation broken!")
		os.Exit(1)
	}
}
