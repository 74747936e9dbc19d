package tds

import (
	"sync"
	"sync/atomic"
	"testing"

	stm "privstm"
)

// TestWeakQuiesceUnderChurn hammers the weak-reader quiescence obligation
// on the redo-log engines: Thread.WeakQuiesce must wait out every
// transaction whose weak traversal could still hold pre-snapshot pointers
// into the detached chain. Readers run weak-read Gets across the whole
// table while a privatizer repeatedly detaches buckets and walks them
// uninstrumented (PrivateList.EachKV); writers keep churning inserts and
// deletes so the chains the privatizer steals are hot.
//
// The assertions are the value signature (every node ever published holds
// v = k*sigMul+sigAdd) and chain-length consistency; the sharper check is
// -race itself, which flags any uninstrumented EachKV load racing an
// instrumented writer if quiescence released the chain too early.
func TestWeakQuiesceUnderChurn(t *testing.T) {
	const (
		buckets   = 4
		keySpace  = 96
		sigMul    = 7
		sigAdd    = 3
		snapshots = 40
	)
	for _, alg := range []stm.Algorithm{stm.Ord, stm.Val} {
		t.Run(alg.String(), func(t *testing.T) {
			s, err := stm.New(stm.Config{
				Algorithm:  alg,
				HeapWords:  1 << 16,
				OrecCount:  1 << 10,
				MaxThreads: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMap(s, buckets, 64)
			if err != nil {
				t.Fatal(err)
			}

			var stop atomic.Bool
			var badReads atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				th := s.MustNewThread()
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						k := stm.Word((seed*31 + i*13) % keySpace)
						if i%7 == 6 {
							_ = th.Atomic(func(tx *stm.Tx) { m.Delete(tx, k) })
						} else {
							_ = th.Atomic(func(tx *stm.Tx) { m.Put(tx, k, k*sigMul+sigAdd) })
						}
					}
				}(w)
			}
			for r := 0; r < 2; r++ {
				th := s.MustNewThread()
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						k := stm.Word((seed*17 + i*29) % keySpace)
						var v stm.Word
						var ok bool
						if th.Atomic(func(tx *stm.Tx) { v, ok = m.Get(tx, k) }) == nil &&
							ok && v != k*sigMul+sigAdd {
							badReads.Add(1)
						}
					}
				}(r)
			}

			priv := s.MustNewThread()
			for i := 0; i < snapshots; i++ {
				pl, err := m.PrivateSnapshot(priv, i%buckets)
				if err != nil {
					stop.Store(true)
					wg.Wait()
					t.Fatal(err)
				}
				walked := 0
				pl.EachKV(func(k, v stm.Word) bool {
					if v != k*sigMul+sigAdd {
						t.Errorf("snapshot %d: key %d holds %d, want %d", i, k, v, k*sigMul+sigAdd)
					}
					walked++
					return true
				})
				if walked != pl.Count {
					t.Errorf("snapshot %d: walked %d nodes, Count says %d", i, walked, pl.Count)
				}
				pl.Retire(priv)
			}
			stop.Store(true)
			wg.Wait()

			if n := badReads.Load(); n != 0 {
				t.Errorf("%d committed Gets returned off-signature values", n)
			}
			s.DrainReclaim()
			if rs := s.ReclaimStats(); rs.Limbo != 0 {
				t.Errorf("%d extents still quarantined after drain", rs.Limbo)
			}
		})
	}
}
