package bench

import (
	"testing"

	stm "privstm"
	"privstm/internal/core"
	"privstm/internal/rng"
)

// Read-barrier microbenchmarks. These measure the two MakeVisible paths in
// isolation — the covered re-read (the common case §II-E optimizes for) and
// the full hint publication through the §II-E compare-and-swap: the figure
// cells tell us whether the read path scales, these tell us *why* (cycles
// and allocations per barrier). internal/core's visibility tests pin that
// MakeVisible allocates nothing.

// newMicroThread builds a runtime with a single registered, active thread,
// ready to issue visibility updates.
func newMicroThread(b *testing.B) (*core.Runtime, *core.Thread) {
	rt, err := core.NewRuntime(core.Options{HeapWords: 1 << 12, OrecCount: 1 << 8, MaxThreads: 4})
	if err != nil {
		b.Fatal(err)
	}
	t, err := rt.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	t.ResetTxnState()
	t.StartSnapshot(rt.Active.Enter(t))
	t.Visible = true
	t.PublishActive(t.BeginTS)
	return rt, t
}

// BenchmarkMakeVisibleCovered measures the re-read barrier: the thread has
// already published a hint on the orec, so every MakeVisible call takes the
// covered fast path.
func BenchmarkMakeVisibleCovered(b *testing.B) {
	b.ReportAllocs()
	rt, t := newMicroThread(b)
	o := rt.Orecs.At(0)
	t.MakeVisible(o, false) // publish once; the loop re-reads
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.MakeVisible(o, false)
	}
}

// BenchmarkMakeVisiblePublish measures the full-update barrier: the orec's
// vis word is cleared and the transaction state reset each iteration, so
// every MakeVisible call publishes a fresh hint (plus the per-transaction
// reset cost, which is part of the path's steady-state price).
func BenchmarkMakeVisiblePublish(b *testing.B) {
	b.ReportAllocs()
	rt, t := newMicroThread(b)
	o := rt.Orecs.At(0)
	ts := t.BeginTS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Vis().Store(0)
		t.ResetTxnState()
		t.StartSnapshot(ts)
		t.MakeVisible(o, false)
	}
}

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
