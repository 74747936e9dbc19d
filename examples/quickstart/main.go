// Quickstart: create an STM, run concurrent transactions, read the result.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"sync"

	stm "privstm"
)

func main() {
	// Pick any algorithm but TL2 for privatization safety.
	s := stm.MustNew(stm.Config{
		Algorithm:  stm.PVRCAS,
		HeapWords:  1 << 16,
		MaxThreads: 8,
	})

	// Transactional memory is word-addressed: allocate two words — a
	// counter and an accumulator.
	counter := s.MustAlloc(1)
	sum := s.MustAlloc(1)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		th := s.MustNewThread() // one Thread per goroutine
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				// Atomic retries transparently on conflict; the body
				// must be idempotent apart from tx operations.
				_ = th.Atomic(func(tx *stm.Tx) {
					c := tx.Load(counter)
					tx.Store(counter, c+1)
					tx.Store(sum, tx.Load(sum)+c)
				})
			}
		}()
	}
	wg.Wait()

	fmt.Printf("algorithm: %v (privatization-safe: %v)\n", s.Algorithm(), s.Algorithm().Safe())
	fmt.Printf("counter:   %d (want 8000)\n", s.DirectLoad(counter))
	fmt.Printf("sum:       %d (want %d)\n", s.DirectLoad(sum), 8000*7999/2)
	if s.DirectLoad(counter) != 8000 || s.DirectLoad(sum) != 8000*7999/2 {
		os.Exit(1)
	}
}
