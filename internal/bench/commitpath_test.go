package bench

import (
	"sync"
	"testing"

	stm "privstm"
	"privstm/internal/rng"
)

// TestRunConfigAblations drives the workload through RunConfig under a
// polling, an in-place and a hybrid engine, checking each produces correct
// structures and full operation counts.
func TestRunConfigAblations(t *testing.T) {
	spec := MultiList(16, 32)
	for _, alg := range []stm.Algorithm{stm.Ord, stm.PVRStore, stm.PVRHybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			m, err := Run(spec, RunConfig{Algorithm: alg, Threads: 4, Mix: WriteHeavy, TxnsPerThread: 500})
			if err != nil {
				t.Fatal(err)
			}
			if m.Ops != 4*500 {
				t.Errorf("ops = %d, want %d", m.Ops, 4*500)
			}
		})
	}
}

// TestExtensionAvoidsAbort pins the behavior the extension buys with a
// deterministic interleaving: reader samples word a, a writer commits to
// an unrelated word b (advancing the clock), then the reader loads b. The
// stale read must extend-and-continue, never abort.
func TestExtensionAvoidsAbort(t *testing.T) {
	t.Run("extend", func(t *testing.T) {
		s := stm.MustNew(stm.Config{
			Algorithm: stm.Ord, HeapWords: 512, OrecCount: 256, MaxThreads: 4,
		})
		words := s.MustAlloc(256)
		a, b := words, words+128
		reader := s.MustNewThread()
		writer := s.MustNewThread()
		wrote := false
		err := reader.Atomic(func(tx *stm.Tx) {
			_ = tx.Load(a)
			if !wrote {
				wrote = true
				if werr := writer.Atomic(func(wx *stm.Tx) { wx.Store(b, 7) }); werr != nil {
					tx.Cancel(werr)
				}
			}
			if got := tx.Load(b); got != 7 {
				t.Errorf("read %d from b, want 7", got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := reader.Stats(); st.Aborts != 0 || st.Extensions != 1 {
			t.Errorf("aborts=%d extensions=%d, want aborts=0 extensions=1", st.Aborts, st.Extensions)
		}
	})
}

// BenchmarkCommitPath is the CI smoke benchmark for the commit path: the
// paper's short-transaction workload. Regressions in the tracker's
// oldest-begin fast path show up here directly.
func BenchmarkCommitPath(b *testing.B) {
	spec := Hashtable(64, 256)
	s := stm.MustNew(stm.Config{
		Algorithm: stm.PVRStore, HeapWords: spec.HeapWords,
		OrecCount: spec.OrecCount, MaxThreads: 128,
	})
	inst, err := spec.Build(s, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	var mu sync.Mutex
	var seq uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		seq++
		ctx := &OpCtx{Th: s.MustNewThread(), RNG: rng.New(seq), S: s}
		mu.Unlock()
		for pb.Next() {
			inst.Op(ctx, ReadMostly)
		}
	})
}
