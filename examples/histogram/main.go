// Histogram: the privatization pattern the paper's motivation describes —
// a phase of concurrent transactional updates followed by a phase of
// intensive *uninstrumented* processing of the same data.
//
// Workers bin samples into a shared histogram transactionally. A
// coordinator then privatizes the whole histogram by atomically swapping
// the published pointer to it, after which it computes statistics over the
// bins with plain loads — the zero-overhead access that motivates
// transparent privatization (the paper cites a workload where 95% of run
// time is spent in privatized data).
//
//	go run ./examples/histogram
package main

import (
	"fmt"
	"os"
	"sync"

	stm "privstm"
)

const (
	bins    = 64
	samples = 20000
	workers = 4
)

func main() {
	s := stm.MustNew(stm.Config{
		Algorithm:  stm.PVRWriterOnly,
		HeapWords:  1 << 16,
		MaxThreads: workers + 1,
	})

	// `current` points at the live histogram; workers load it in every
	// transaction, so a privatizer can swap it out from under them safely.
	current := s.MustAlloc(1)
	hist := s.MustAlloc(bins)
	if err := s.Quiescent(func(h stm.Private) { h.Store(current, stm.Word(hist)) }); err != nil {
		panic(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := s.MustNewThread()
		seed := uint64(w*7 + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := seed
			for i := 0; i < samples/workers; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				bin := stm.Addr(x>>33) % bins
				_ = th.Atomic(func(tx *stm.Tx) {
					h := tx.LoadAddr(current)
					if h == stm.Nil {
						return // histogram privatized; drop the sample
					}
					tx.Store(h+bin, tx.Load(h+bin)+1)
				})
			}
		}()
	}
	wg.Wait()

	// Privatize: one tiny transaction detaches the histogram...
	coord := s.MustNewThread()
	mine, err := coord.Privatize(func(tx *stm.Tx) (stm.Addr, int) {
		h := tx.LoadAddr(current)
		tx.StoreAddr(current, stm.Nil)
		return h, bins
	})
	if err != nil {
		panic(err)
	}

	// ...and the analysis phase runs on private data at memory speed.
	var total, max stm.Word
	maxBin := stm.Addr(0)
	for b := stm.Addr(0); b < bins; b++ {
		v := mine.Load(b)
		total += v
		if v > max {
			max, maxBin = v, b
		}
	}
	fmt.Printf("samples binned: %d (want %d)\n", total, samples)
	fmt.Printf("fullest bin:    #%d with %d samples\n", maxBin, max)
	fmt.Printf("privatizer fenced: %d time(s)\n", coord.Stats().Fenced)
	if total != samples {
		os.Exit(1)
	}
}
