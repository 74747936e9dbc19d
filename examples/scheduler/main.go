// Scheduler: a tiny transactional job scheduler composed from internal/tds
// containers — a dedup set and a queue in submission order — plus one-word
// completion counters, where every scheduling decision is one atomic
// transaction across all of them.
//
// Submitting checks the dedup set, adds the job to it, enqueues it and
// bumps a counter atomically; claiming pops the oldest job and counts it
// atomically. No locks, no lock ordering, no partial states — the STM
// retries conflicting steps transparently.
//
//	go run ./examples/scheduler
package main

import (
	"fmt"
	"os"
	"sync"

	stm "privstm"
	"privstm/internal/tds"
)

const (
	jobs      = 2000
	producers = 2
	workers   = 3
	// Each producer draws this many job ids from [1, jobs]; about a
	// quarter repeat an id already submitted and are dropped.
	draws = jobs / producers * 5 / 4
)

func main() {
	s := stm.MustNew(stm.Config{
		Algorithm:  stm.PVRWriterOnly,
		HeapWords:  1 << 18,
		MaxThreads: producers + workers + 1,
	})
	queue, err := tds.NewQueue(s)
	check(err)
	seen, err := tds.NewSet(s, 64, 64)
	check(err)
	submitted, completed, dupes := s.MustAlloc(1), s.MustAlloc(1), s.MustAlloc(1)
	incr := func(tx *stm.Tx, c stm.Addr) { tx.Store(c, tx.Load(c)+1) }

	var wg sync.WaitGroup
	// Producers submit jobs; duplicates must be dropped.
	for p := 0; p < producers; p++ {
		th := s.MustNewThread()
		seed := uint64(p + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := seed
			for i := 0; i < draws; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				job := stm.Word(x>>33)%jobs + 1
				_ = th.Atomic(func(tx *stm.Tx) {
					if seen.Contains(tx, job) {
						incr(tx, dupes)
						return
					}
					seen.Add(tx, job)
					queue.Push(tx, job)
					incr(tx, submitted)
				})
			}
		}()
	}
	wg.Wait()

	// Workers drain in submission order; each claim is atomic with the
	// completion count, so an audit at any instant balances.
	var claimed [workers][]stm.Word
	for w := 0; w < workers; w++ {
		th := s.MustNewThread()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				var job stm.Word
				var ok bool
				_ = th.Atomic(func(tx *stm.Tx) {
					job, ok = queue.Pop(tx)
					if ok {
						incr(tx, completed)
					}
				})
				if !ok {
					return
				}
				claimed[w] = append(claimed[w], job)
			}
		}(w)
	}
	wg.Wait()

	// Every unique job was claimed exactly once: no claim repeats, and the
	// claims are exactly the dedup set's members.
	claims := make(map[stm.Word]int)
	total := 0
	for w := range claimed {
		total += len(claimed[w])
		for _, job := range claimed[w] {
			claims[job]++
		}
	}
	th := s.MustNewThread()
	var sub, comp, dup stm.Word
	var members int
	unseen := 0
	_ = th.Atomic(func(tx *stm.Tx) {
		sub, comp, dup = tx.Load(submitted), tx.Load(completed), tx.Load(dupes)
		members = seen.Len(tx)
		unseen = 0
		for job := range claims {
			if !seen.Contains(tx, job) {
				unseen++
			}
		}
	})
	once := len(claims) == total && total == members && unseen == 0
	fmt.Printf("submitted: %d unique (+%d duplicates dropped)\n", sub, dup)
	fmt.Printf("completed: %d (workers drained %d)\n", comp, total)
	fmt.Printf("every unique job claimed exactly once: %v\n", once)
	if !once || sub != comp || int(comp) != total || sub+dup != producers*draws {
		fmt.Println("MISMATCH — isolation broken!")
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
