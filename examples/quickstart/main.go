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
	threads := make([]*stm.Thread, 8)
	for i := range threads {
		th := s.MustNewThread() // one Thread per goroutine
		threads[i] = th
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
	// Close every thread; then nothing can race with a plain read of the
	// results.
	for _, th := range threads {
		if err := th.Close(); err != nil {
			panic(err)
		}
	}
	var c, total stm.Word
	if err := s.Quiescent(func(h stm.Private) { c, total = h.Load(counter), h.Load(sum) }); err != nil {
		panic(err)
	}

	fmt.Printf("algorithm: %v (privatization-safe: %v)\n", s.Algorithm(), s.Algorithm().Safe())
	fmt.Printf("counter:   %d (want 8000)\n", c)
	fmt.Printf("sum:       %d (want %d)\n", total, 8000*7999/2)
	if c != 8000 || total != 8000*7999/2 {
		os.Exit(1)
	}
}
