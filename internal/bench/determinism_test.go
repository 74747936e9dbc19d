package bench

import (
	"testing"

	stm "privstm"
	"privstm/internal/rng"
)

// TestEnginesAgreeSequentially drives every engine with the same
// deterministic single-threaded operation stream on each structure and
// requires the final key sets to be identical: all eight engines implement
// the same sequential semantics, whatever their concurrency machinery.
func TestEnginesAgreeSequentially(t *testing.T) {
	engines := stm.Algorithms
	specs := []Spec{
		Hashtable(8, 64),
		BST(256),
		MultiList(4, 16),
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			var want []uint64
			for i, alg := range engines {
				s, err := stm.New(stm.Config{
					Algorithm: alg, HeapWords: spec.HeapWords, OrecCount: 256, MaxThreads: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				inst, err := spec.Build(s, rng.New(11))
				if err != nil {
					t.Fatal(err)
				}
				ctx := &OpCtx{Th: s.MustNewThread(), RNG: rng.New(22), S: s}
				for j := 0; j < 3000; j++ {
					inst.Op(ctx, WriteHeavy)
				}
				if err := ctx.Th.Close(); err != nil {
					t.Fatal(err)
				}
				if err := inst.Check(s); err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				got := inst.Dump(s)
				if i == 0 {
					want = got
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%v produced %d keys, %v produced %d",
						alg, len(got), engines[0], len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%v diverged from %v at key %d: %d vs %d",
							alg, engines[0], k, got[k], want[k])
					}
				}
			}
		})
	}
}
