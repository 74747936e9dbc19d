// Bank: a classic STM workload — concurrent transfers with invariant
// audits — run against every algorithm, printing throughput and abort
// rates side by side. The conserved total demonstrates isolation; the
// per-algorithm numbers preview the trade-offs the paper's Figure 3
// quantifies.
//
//	go run ./examples/bank
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	stm "privstm"
)

const (
	accounts = 64
	initial  = 1000
	threads  = 4
	duration = 300 * time.Millisecond
)

func main() {
	fmt.Printf("%-14s %12s %10s %12s\n", "algorithm", "transfers/s", "aborts%", "total-ok")
	failed := false
	for _, alg := range stm.Algorithms {
		if !run(alg) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// run reports whether the algorithm conserved the total.
func run(alg stm.Algorithm) bool {
	s := stm.MustNew(stm.Config{
		Algorithm:  alg,
		HeapWords:  1 << 12,
		MaxThreads: threads,
	})
	base := s.MustAlloc(accounts)
	must(s.Quiescent(func(h stm.Private) {
		for i := stm.Addr(0); i < accounts; i++ {
			h.Store(base+i, initial)
		}
	}))

	var wg sync.WaitGroup
	ths := make([]*stm.Thread, threads)
	deadline := time.Now().Add(duration)
	for i := range ths {
		ths[i] = s.MustNewThread()
		seed := uint64(i + 1)
		th := ths[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := seed
			for time.Now().Before(deadline) {
				for j := 0; j < 128; j++ {
					x = x*6364136223846793005 + 1442695040888963407
					from := stm.Addr(x>>33) % accounts
					to := stm.Addr(x>>13) % accounts
					if from == to {
						to = (to + 1) % accounts
					}
					_ = th.Atomic(func(tx *stm.Tx) {
						f := tx.Load(base + from)
						tx.Store(base+from, f-1)
						tx.Store(base+to, tx.Load(base+to)+1)
					})
				}
			}
		}()
	}
	wg.Wait()

	// Close folds each thread's counters into s.Stats, and the audit
	// reads the accounts only once no thread is open.
	for _, th := range ths {
		must(th.Close())
	}
	st := s.Stats()
	commits, aborts := st.Commits, st.Aborts
	var total stm.Word
	must(s.Quiescent(func(h stm.Private) {
		for i := stm.Addr(0); i < accounts; i++ {
			total += h.Load(base + i)
		}
	}))
	ok := "yes"
	if total != accounts*initial {
		ok = fmt.Sprintf("NO (%d)", total)
	}
	abortPct := 0.0
	if commits+aborts > 0 {
		abortPct = 100 * float64(aborts) / float64(commits+aborts)
	}
	fmt.Printf("%-14v %12.0f %9.1f%% %12s\n",
		alg, float64(commits)/duration.Seconds(), abortPct, ok)
	return total == accounts*initial
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
