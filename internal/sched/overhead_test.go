package sched

import (
	"fmt"
	"testing"

	"privstm/internal/failpoint"
)

// TestPointDisabledZeroAlloc pins the disabled explorer's cost model: with
// no controller installed (the production state) a yield point must not
// allocate. The runtime's hot paths call failpoint.Eval unconditionally,
// so any allocation here would tax every transaction in every build.
func TestPointDisabledZeroAlloc(t *testing.T) {
	failpoint.Reset()
	if n := testing.AllocsPerRun(1000, func() { Point("sched/overhead/probe") }); n != 0 {
		t.Fatalf("disabled yield point allocates %v times per call, want 0", n)
	}
}

// BenchmarkPointDisabled measures the disabled yield point: one atomic
// pointer load and a nil check (same budget as a bare failpoint.Eval).
// Compare against BenchmarkPointArmedNoHook for the cost of an armed
// registry without a controller.
func BenchmarkPointDisabled(b *testing.B) {
	failpoint.Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Point("sched/overhead/probe")
	}
}

// BenchmarkPointArmedNoHook measures a yield point with the registry armed
// (some unrelated failpoint set) but no global controller hook — the state
// a fault-injection test leaves between arms.
func BenchmarkPointArmedNoHook(b *testing.B) {
	failpoint.Set("sched/overhead/other", nil)
	defer failpoint.Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Point("sched/overhead/probe")
	}
}

// atDepth calls fn from n extra stack frames, standing in for the depth of
// a yield point inside the runtime (a core read path sits about 30 frames
// below the worker body).
//
//go:noinline
func atDepth(n int, fn func()) {
	if n <= 0 {
		fn()
		return
	}
	atDepth(n-1, fn)
}

// BenchmarkExploreSchedule measures the explorer end to end on one fixed
// program: two workers, each yielding 64 times, from a shallow stack and
// from one as deep as a core read path's. One iteration is one PCT
// schedule. Every yield pays a goroutine handoff and the worker lookup in
// hook, whose goid walks the whole stack, so the gap between the two
// depths is goid's.
func BenchmarkExploreSchedule(b *testing.B) {
	const yields = 64
	for _, depth := range []int{2, 30} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			body := func() {
				atDepth(depth, func() {
					for i := 0; i < yields; i++ {
						Point("sched/bench/yield")
					}
				})
			}
			for i := 0; i < b.N; i++ {
				if res := Run(Config{Seed: uint64(i)}, body, body); res.Failed() {
					b.Fatal(res.Err)
				}
			}
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(b.N)/sec, "schedules/s")
			b.ReportMetric(sec*1e9/float64(b.N*2*yields), "ns/yield")
		})
	}
}
