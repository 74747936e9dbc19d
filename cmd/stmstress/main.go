// Command stmstress runs long-form correctness stress against one or all
// algorithms: concurrent data-structure churn with full structural
// verification, bank-transfer invariant audits, and visibility-protocol
// hammering. It is the soak-test companion to the quick `go test` suite.
//
// Examples:
//
//	stmstress -dur 10s
//	stmstress -algo pvrStore -dur 1m -threads 8
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	stm "privstm"
	"privstm/internal/bench"
	"privstm/internal/serial"
)

func main() {
	var (
		algo    = flag.String("algo", "all", "algorithm (figure label) or 'all'")
		dur     = flag.Duration("dur", 5*time.Second, "stress duration per algorithm")
		threads = flag.Int("threads", 8, "worker threads")
	)
	flag.Parse()

	algos := stm.Algorithms
	if *algo != "all" {
		a, err := stm.ParseAlgorithm(*algo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stmstress:", err)
			os.Exit(2)
		}
		algos = []stm.Algorithm{a}
	}

	for _, a := range algos {
		if err := stressStructures(a, *dur/3, *threads); err != nil {
			fmt.Fprintf(os.Stderr, "stmstress: %v: %v\n", a, err)
			os.Exit(1)
		}
		if err := stressBank(a, *dur/3, *threads); err != nil {
			fmt.Fprintf(os.Stderr, "stmstress: %v: %v\n", a, err)
			os.Exit(1)
		}
		if err := stressSerializability(a, *dur/3, *threads); err != nil {
			fmt.Fprintf(os.Stderr, "stmstress: %v: %v\n", a, err)
			os.Exit(1)
		}
		fmt.Printf("%-14s OK (%v structure churn + bank audit + serializability check, %d threads)\n", a, *dur, *threads)
	}
}

// stressSerializability records a concurrent read-modify-write history
// through the public API and verifies conflict-serializability offline
// (internal/serial), trusting nothing inside the runtime.
func stressSerializability(a stm.Algorithm, dur time.Duration, threads int) error {
	const registers = 16
	s, err := stm.New(stm.Config{Algorithm: a, HeapWords: 1 << 12, OrecCount: 256, MaxThreads: threads})
	if err != nil {
		return err
	}
	base := s.MustAlloc(registers)
	var mu sync.Mutex
	hist := &serial.History{}
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		th := s.MustNewThread()
		tid := uint64(w + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := tid * 0x9e3779b97f4a7c15
			var local []serial.Txn
			for i := 0; time.Now().Before(deadline); i++ {
				x = x*6364136223846793005 + 1442695040888963407
				var rec serial.Txn
				y := x
				errTx := th.Atomic(func(tx *stm.Tx) {
					rec = serial.Txn{ID: int(tid)<<40 | i}
					addr := base + stm.Addr(y>>33)%registers
					v := tx.Load(addr)
					rec.Reads = []serial.Op{{Addr: uint64(addr), Val: uint64(v)}}
					nv := tid<<48 | uint64(i+1)
					tx.Store(addr, stm.Word(nv))
					rec.Writes = []serial.Op{{Addr: uint64(addr), Val: nv}}
				})
				if errTx == nil {
					local = append(local, rec)
				}
			}
			mu.Lock()
			hist.Txns = append(hist.Txns, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	hist.SortByID()
	if err := serial.Check(hist); err != nil {
		return fmt.Errorf("serializability violated over %d txns: %w", len(hist.Txns), err)
	}
	return nil
}

// stressStructures churns all three benchmark structures concurrently under
// write-heavy load and verifies them afterwards (bench.Run performs the
// structural check and fails on violation).
func stressStructures(a stm.Algorithm, dur time.Duration, threads int) error {
	specs := []bench.Spec{
		bench.Hashtable(64, 256),
		bench.BST(1 << 14),
		bench.MultiList(16, 64),
	}
	for _, sp := range specs {
		if _, err := bench.Run(sp, bench.RunConfig{
			Algorithm: a,
			Threads:   threads,
			Mix:       bench.WriteHeavy,
			Duration:  dur / time.Duration(len(specs)),
		}); err != nil {
			return err
		}
	}
	return nil
}

// stressBank runs concurrent transfers over a shared account array with
// continuous transactional audits of the conserved total.
func stressBank(a stm.Algorithm, dur time.Duration, threads int) error {
	const accounts = 64
	const initial = 1000
	s, err := stm.New(stm.Config{Algorithm: a, HeapWords: 1 << 16, OrecCount: 1 << 10, MaxThreads: threads})
	if err != nil {
		return err
	}
	base := s.MustAlloc(accounts)
	for i := stm.Addr(0); i < accounts; i++ {
		s.DirectStore(base+i, initial)
	}
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	deadline := time.Now().Add(dur)
	for i := 0; i < threads; i++ {
		th := s.MustNewThread()
		seed := uint64(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := seed
			for time.Now().Before(deadline) {
				for j := 0; j < 64; j++ {
					x = x*6364136223846793005 + 1442695040888963407
					from := stm.Addr(x>>33) % accounts
					to := stm.Addr(x>>13) % accounts
					if from == to {
						to = (to + 1) % accounts
					}
					if j%16 == 0 {
						var sum stm.Word
						_ = th.Atomic(func(tx *stm.Tx) {
							sum = 0
							for k := stm.Addr(0); k < accounts; k++ {
								sum += tx.Load(base + k)
							}
						})
						if sum != accounts*initial {
							errs <- fmt.Errorf("bank audit: total %d, want %d", sum, accounts*initial)
							return
						}
						continue
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
	close(errs)
	for e := range errs {
		return e
	}
	var sum stm.Word
	for i := stm.Addr(0); i < accounts; i++ {
		sum += s.DirectLoad(base + i)
	}
	if sum != accounts*initial {
		return fmt.Errorf("bank final: total %d, want %d", sum, accounts*initial)
	}
	return nil
}
