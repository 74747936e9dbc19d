package stm

import (
	"testing"
	"testing/quick"
)

// TestEngineEquivalenceRandomPrograms generates random transactional
// programs (sequences of loads, stores, and occasional cancels over a
// small heap) and runs each program single-threaded under every engine:
// the final heap images must be identical — the engines may differ in
// every concurrency mechanism, but never in sequential semantics. Each
// engine runs at the paper's one-word conflict granularity and at the
// default block, whose same-block read memo and shared orecs must not show.
func TestEngineEquivalenceRandomPrograms(t *testing.T) {
	const heapWords = 32
	type step struct {
		Addr   uint8
		Val    uint16
		Kind   uint8 // %3: 0 load, 1 store, 2 store-accumulate
		Cancel bool  // cancel the whole txn at this step (rare)
	}
	run := func(alg Algorithm, blockWords int, prog []step) []Word {
		s := MustNew(Config{Algorithm: alg, BlockWords: blockWords, HeapWords: heapWords + 8, OrecCount: 64, MaxThreads: 2})
		base := s.MustAlloc(heapWords)
		th := s.MustNewThread()
		// Split the program into transactions of ≤5 steps.
		for i := 0; i < len(prog); i += 5 {
			end := i + 5
			if end > len(prog) {
				end = len(prog)
			}
			chunk := prog[i:end]
			_ = th.Atomic(func(tx *Tx) {
				for _, st := range chunk {
					a := base + Addr(st.Addr)%heapWords
					if st.Cancel && st.Val%16 == 0 {
						tx.Cancel(errEquiv)
					}
					switch st.Kind % 3 {
					case 0:
						_ = tx.Load(a)
					case 1:
						tx.Store(a, Word(st.Val))
					default:
						tx.Store(a, tx.Load(a)+Word(st.Val))
					}
				}
			})
		}
		img := make([]Word, heapWords)
		for i := range img {
			img[i] = s.DirectLoad(base + Addr(i))
		}
		return img
	}
	prop := func(prog []step) bool {
		if len(prog) > 60 {
			prog = prog[:60]
		}
		ref := run(TL2, 1, prog)
		for _, alg := range allAlgorithms {
			for _, bw := range []int{1, 0} { // 0: the default block
				if alg == TL2 && bw == 1 {
					continue
				}
				got := run(alg, bw, prog)
				for i := range ref {
					if got[i] != ref[i] {
						t.Logf("%v (BlockWords %d) diverged from TL2 (BlockWords 1) at word %d: %d vs %d", alg, bw, i, got[i], ref[i])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

var errEquiv = errTrace("cancelled")
