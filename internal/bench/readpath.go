package bench

import (
	"fmt"
	"io"
	"testing"

	"privstm/internal/core"
)

// Read-barrier microbenchmarks. These measure the two MakeVisible paths in
// isolation — the covered re-read (the common case §II-E optimizes for) and
// the full hint publication through the §II-E compare-and-swap. They back the
// BENCH_readpath baseline: macrobenchmarks tell us whether the read path
// scales, these tell us *why* (cycles and allocations per barrier).
//
// The benchmark bodies live here, outside a _test.go file, so that
// stmbench -micro can run them through testing.Benchmark and embed the
// results in its JSON report next to the figure cells; readpath_test.go
// wraps the same bodies for `go test -bench`.

// MicroResult is one microbenchmark outcome, as embedded in the JSON
// report.
type MicroResult struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp float64
	BytesPerOp  float64
}

// newMicroThread builds a runtime with a single registered, active thread,
// ready to issue visibility updates.
func newMicroThread() (*core.Runtime, *core.Thread, error) {
	rt, err := core.NewRuntime(core.Options{HeapWords: 1 << 12, OrecCount: 1 << 8, MaxThreads: 4})
	if err != nil {
		return nil, nil, err
	}
	t, err := rt.NewThread()
	if err != nil {
		return nil, nil, err
	}
	t.ResetTxnState()
	t.StartSnapshot(rt.Active.Enter(t))
	t.Visible = true
	t.PublishActive(t.BeginTS)
	return rt, t, nil
}

// benchMakeVisibleCovered measures the re-read barrier: the thread has
// already published a hint on the orec, so every MakeVisible call takes the
// covered fast path.
func benchMakeVisibleCovered(b *testing.B) {
	b.ReportAllocs()
	rt, t, err := newMicroThread()
	if err != nil {
		b.Fatal(err)
	}
	_ = rt
	o := rt.Orecs.At(0)
	t.MakeVisible(o, false) // publish once; the loop re-reads
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.MakeVisible(o, false)
	}
}

// benchMakeVisiblePublish measures the full-update barrier: the orec's vis
// word is cleared and the transaction state reset each iteration, so every
// MakeVisible call publishes a fresh hint (plus the per-transaction reset
// cost, which is part of the path's steady-state price).
func benchMakeVisiblePublish(b *testing.B) {
	b.ReportAllocs()
	rt, t, err := newMicroThread()
	if err != nil {
		b.Fatal(err)
	}
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

// ReadPathMicros runs every read-path microbenchmark once through
// testing.Benchmark and returns the results.
func ReadPathMicros() []MicroResult {
	return []MicroResult{
		runMicro("MakeVisibleCovered/CAS", benchMakeVisibleCovered),
		runMicro("MakeVisiblePublish/CAS", benchMakeVisiblePublish),
	}
}

func runMicro(name string, fn func(*testing.B)) MicroResult {
	r := testing.Benchmark(fn)
	return MicroResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
}

// WriteMicroTable prints micro results in a benchstat-like table.
func WriteMicroTable(w io.Writer, ms []MicroResult) {
	fmt.Fprintf(w, "%-28s %12s %12s %12s\n", "microbenchmark", "ns/op", "allocs/op", "B/op")
	for _, m := range ms {
		fmt.Fprintf(w, "%-28s %12.1f %12.1f %12.1f\n", m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}
}
