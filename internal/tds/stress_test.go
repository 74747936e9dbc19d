package tds

import (
	"sync"
	"sync/atomic"
	"testing"

	stm "privstm"
	"privstm/internal/failpoint"
)

// TestMixedStress is the -race mixed workload: the 40/40/20 shape of the
// benchmark (map updates / queue producer-consumer / map lookups) hammered
// from several threads, with an occasional private drain thrown in, and the
// books balanced at the end:
//
//   - every queue token is conserved: pushed == popped + privately drained +
//     still enqueued;
//   - per-thread map key ranges end with exactly the increments applied;
//   - privately drained nodes are readable uninstrumented and retire clean.
func TestMixedStress(t *testing.T) {
	const (
		workers = 4
		iters   = 300
	)
	for _, alg := range []stm.Algorithm{stm.Ord, stm.PVRStore, stm.PVRHybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			s := newSTM(t, alg)
			m, _ := NewMap(s, 8, 64)
			q, _ := NewQueue(s)
			var pushed, popped, drained atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				th := s.MustNewThread()
				base := stm.Word(w * 100)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						switch i % 10 {
						case 0, 1, 2, 3: // 40%: read-modify-write a map key
							k := base + stm.Word(i%25)
							_ = th.Atomic(func(tx *stm.Tx) {
								v, _ := m.Get(tx, k)
								m.Put(tx, k, v+1)
							})
						case 4, 5: // 20%: produce
							_ = th.Atomic(func(tx *stm.Tx) { q.Push(tx, 1) })
							pushed.Add(1)
						case 6, 7: // 20%: consume
							took := false
							_ = th.Atomic(func(tx *stm.Tx) {
								_, took = q.Pop(tx)
							})
							if took {
								popped.Add(1)
							}
						default: // 20%: lookups
							k := base + stm.Word(i%25)
							_ = th.Atomic(func(tx *stm.Tx) {
								m.Get(tx, k)
								m.Len(tx)
								q.Len(tx)
							})
						}
						if w == 0 && i%97 == 96 && alg.Safe() {
							pl, err := q.DrainPrivate(th)
							if err != nil {
								t.Error(err)
								return
							}
							n := 0
							pl.Each(func(node stm.Addr) bool {
								if s.DirectLoad(node+1) != 1 {
									t.Error("drained token corrupted")
								}
								n++
								return true
							})
							if n != pl.Count {
								t.Errorf("drain walked %d, Count %d", n, pl.Count)
							}
							drained.Add(uint64(pl.Count))
							pl.Retire(th)
						}
					}
				}(w)
			}
			wg.Wait()
			th := s.MustNewThread()
			_ = th.Atomic(func(tx *stm.Tx) {
				rem := 0
				for {
					if _, ok := q.Pop(tx); !ok {
						break
					}
					rem++
				}
				if got := popped.Load() + drained.Load() + uint64(rem); got != pushed.Load() {
					t.Errorf("token leak: pushed %d, accounted %d (popped %d, drained %d, remaining %d)",
						pushed.Load(), got, popped.Load(), drained.Load(), rem)
				}
				var sum stm.Word
				for w := 0; w < workers; w++ {
					for i := 0; i < 25; i++ {
						if v, ok := m.Get(tx, stm.Word(w*100+i)); ok {
							sum += v
						}
					}
				}
				// 4 of every 10 iterations increment; iters multiple of 10.
				if want := stm.Word(workers * iters * 4 / 10); sum != want {
					t.Errorf("map increments = %d, want %d", sum, want)
				}
				tx.Cancel(errAudit) // audit only; roll the drain back
			})
		})
	}
}

// TestPrivatizeOvertakeStress is the regression stress for the window
// core.Thread.SemStillValid closes (CORRECTNESS.md §15): four threads
// hammer a small map — 8 buckets, 256 keys — with Put/Delete/Get and one
// PrivateSnapshot in ten. Every private walk must visit exactly the nodes
// the privatizing transaction counted, in ascending key order with each
// key's one value, and once the threads join Map.Len must equal the keys a
// transactional scan finds. Before the fix a Delete or Put that had
// checked its bucket-stripe sample could be overtaken by the snapshot and
// still commit into the detached chain: a miscounted walk and a drifted
// Len every few hundred thousand snapshots with two threads on two
// processors. A yield armed on the SemValidated failpoint — between that
// check and the commit timestamp — and more threads than processors, so
// the yield really hands the processor to a rival, widen the window until
// a run this short sees it: built with -tags privstm_semrevalidate_race,
// which compiles the fix out, this test failed seven runs of ten.
func TestPrivatizeOvertakeStress(t *testing.T) {
	const (
		workers = 4
		buckets = 8
		keys    = 256
	)
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	failpoint.Set(failpoint.SemValidated, failpoint.YieldN(2))
	t.Cleanup(failpoint.Reset)
	for _, alg := range []stm.Algorithm{stm.PVRStore, stm.Val} {
		t.Run(alg.String(), func(t *testing.T) {
			s := newSTM(t, alg)
			m, err := NewMap(s, buckets, 64)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				th := s.MustNewThread()
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					x := seed
					for i := 0; i < iters; i++ {
						x = x*6364136223846793005 + 1442695040888963407
						k := stm.Word(x >> 33 % keys)
						switch op := x >> 20 % 10; {
						case op == 0:
							pl, err := m.PrivateSnapshot(th, int(k%buckets))
							if err != nil {
								t.Error(err)
								return
							}
							n, last := 0, stm.Word(0)
							pl.EachKV(func(k, v stm.Word) bool {
								if v != k+1000 || (n > 0 && k <= last) {
									t.Errorf("private walk: key %d value %d after key %d", k, v, last)
								}
								n, last = n+1, k
								return true
							})
							if n != pl.Count {
								t.Errorf("private walk visited %d nodes, the privatizing transaction counted %d", n, pl.Count)
							}
							pl.Retire(th)
						case op < 4:
							_ = th.Atomic(func(tx *stm.Tx) { m.Put(tx, k, k+1000) })
						case op < 7:
							_ = th.Atomic(func(tx *stm.Tx) { m.Delete(tx, k) })
						default:
							_ = th.Atomic(func(tx *stm.Tx) { m.Get(tx, k) })
						}
					}
				}(uint64(w)*977 + 1)
			}
			wg.Wait()
			th := s.MustNewThread()
			_ = th.Atomic(func(tx *stm.Tx) {
				found := 0
				for k := stm.Word(0); k < keys; k++ {
					if _, ok := m.Get(tx, k); ok {
						found++
					}
				}
				if size := m.Len(tx); size != found {
					t.Errorf("Map.Len %d, transactional scan found %d keys", size, found)
				}
			})
		})
	}
}
