package bench

import (
	"testing"

	stm "privstm"
	"privstm/internal/rng"
)

// go test -bench wrappers over the readpath.go benchmark bodies (which
// stmbench -micro also runs via testing.Benchmark).

func BenchmarkMakeVisibleCovered(b *testing.B) { benchMakeVisibleCovered(b) }

func BenchmarkMakeVisiblePublish(b *testing.B) { benchMakeVisiblePublish(b) }

// BenchmarkReadPathTraversal is the end-to-end read-barrier canary: a
// single-thread Fig. 3g long-list traversal on an engine with no partial
// visibility, so its cost is orec lookup + consistent read + read-set
// logging and nothing else. Any extra load or branch on the orec handle
// path shows up here directly.
func BenchmarkReadPathTraversal(b *testing.B) {
	spec := MultiList(64, 128)
	s := stm.MustNew(stm.Config{
		Algorithm: stm.Ord, HeapWords: spec.HeapWords,
		OrecCount: spec.OrecCount, MaxThreads: 8,
	})
	inst, err := spec.Build(s, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := &OpCtx{Th: s.MustNewThread(), RNG: rng.New(2), S: s}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Op(ctx, ReadMostly)
	}
}
