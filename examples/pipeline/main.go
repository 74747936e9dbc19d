// Pipeline: composable transactions over tlib structures, ending in a
// privatized result.
//
// Stage 1 workers pull raw items from a transactional queue, "process"
// them, and push results onto a second queue — each pull+push is ONE
// atomic transaction, so a conflict can never lose or duplicate an item.
// A final coordinator audits the results in a single snapshot-consistent
// transaction. The run also exercises this repo's two future-work
// extensions (lock-free tracker, commit-capped fences).
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"sync"

	stm "privstm"
	"privstm/tlib"
)

const (
	items   = 4000
	workers = 4
)

func main() {
	s := stm.MustNew(stm.Config{
		Algorithm:  stm.PVRStore,
		HeapWords:  1 << 18,
		MaxThreads: workers + 2,
		// The lock-free slot tracker is the default; commit-capped fences
		// are opt-in:
		CapFenceAtCommit: true,
	})

	raw, err := tlib.NewQueue(s, items)
	if err != nil {
		panic(err)
	}
	done, err := tlib.NewQueue(s, items)
	if err != nil {
		panic(err)
	}
	processed, err := tlib.NewCounter(s)
	if err != nil {
		panic(err)
	}

	// Seed the input queue.
	seeder := s.MustNewThread()
	for i := 0; i < items; i += 100 {
		lo, hi := i, i+100
		if err := seeder.Atomic(func(tx *stm.Tx) {
			for v := lo; v < hi; v++ {
				if err := raw.Enqueue(tx, stm.Word(v)); err != nil {
					tx.Cancel(err)
				}
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
					v, ok := raw.Dequeue(tx)
					if !ok {
						empty = true
						return
					}
					// "Process": square the item. Pull, compute, push —
					// atomically; an abort retries the whole step.
					if err := done.Enqueue(tx, v*v); err != nil {
						tx.Cancel(err)
					}
					processed.Add(tx, 1)
				})
				if empty {
					return
				}
			}
		}()
	}
	wg.Wait()

	// Stage 2: tally. The counter audit and the drain are each one
	// transaction; the drain observes a consistent snapshot of the whole
	// queue no matter what ran before it.
	coord := s.MustNewThread()
	var count int
	var sum uint64
	_ = coord.Atomic(func(tx *stm.Tx) {
		count = int(processed.Value(tx))
	})
	_ = coord.Atomic(func(tx *stm.Tx) {
		sum = 0
		for {
			v, ok := done.Dequeue(tx)
			if !ok {
				return
			}
			sum += uint64(v)
		}
	})

	var want uint64
	for v := 0; v < items; v++ {
		want += uint64(v) * uint64(v)
	}
	fmt.Printf("items processed: %d (want %d)\n", count, items)
	fmt.Printf("sum of squares:  %d (want %d)\n", sum, want)
	fmt.Printf("worker aborts:   transparent — none observable here\n")
}
