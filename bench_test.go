// Benchmarks regenerating the paper's evaluation under `go test -bench`.
//
// One benchmark per figure panel: BenchmarkFig3a … BenchmarkFig3h sweep all
// eight STM systems over the three microbenchmark structures and both
// operation mixes (Figure 3); BenchmarkFig4a/4c/4e/4g report the
// percent-writers-fenced and percent-visible-reads-skipped metrics for
// pvrBase vs pvrCAS (Figure 4); BenchmarkSingleThreadOverhead reproduces
// §V's single-thread comparison. Structure sizes default to a scaled-down
// CI configuration; `go run ./cmd/stmbench -scale 1` runs paper scale.
//
// Sub-benchmark names are the paper's curve labels, so
// `go test -bench 'Fig3a/pvrStore'` measures one curve of one panel.
package stm_test

import (
	"fmt"
	"sync"
	"testing"

	stm "privstm"
	"privstm/internal/bench"
	"privstm/internal/rng"
)

// benchScale divides structure sizes for CI-speed benchmarks.
const benchScale = 8

func panelSpec(fig string) (bench.Spec, bench.Mix) {
	f, err := bench.FigureByID(fig)
	if err != nil {
		panic(err)
	}
	return f.Spec(benchScale), f.Mix
}

// runPanel drives b.N operations of the given mix, spread over GOMAXPROCS
// workers, against one algorithm, and reports ops/sec (the unit of every
// Figure 3 axis).
func runPanel(b *testing.B, spec bench.Spec, alg stm.Algorithm, mix bench.Mix) *bench.Measurement {
	b.Helper()
	s, err := stm.New(stm.Config{
		Algorithm:  alg,
		HeapWords:  spec.HeapWords,
		OrecCount:  spec.OrecCount,
		MaxThreads: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := spec.Build(s, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	var mu sync.Mutex
	m := &bench.Measurement{Workload: spec.Name, Algorithm: alg.String(), Mix: mix}
	var seq uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		seq++
		ctx := &bench.OpCtx{Th: s.MustNewThread(), RNG: rng.New(seq * 0x9e37), S: s}
		mu.Unlock()
		for pb.Next() {
			inst.Op(ctx, mix)
		}
		mu.Lock()
		m.Stats.Add(ctx.Th.Stats())
		mu.Unlock()
	})
	b.StopTimer()
	if err := inst.Check(s); err != nil {
		b.Fatalf("post-bench structural check: %v", err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
	return m
}

func benchFig3(b *testing.B, fig string) {
	spec, mix := panelSpec(fig)
	for _, alg := range bench.StandardCurves {
		b.Run(alg.String(), func(b *testing.B) {
			runPanel(b, spec, alg, mix)
		})
	}
}

func BenchmarkFig3a(b *testing.B) { benchFig3(b, "3a") }
func BenchmarkFig3b(b *testing.B) { benchFig3(b, "3b") }
func BenchmarkFig3c(b *testing.B) { benchFig3(b, "3c") }
func BenchmarkFig3d(b *testing.B) { benchFig3(b, "3d") }
func BenchmarkFig3e(b *testing.B) { benchFig3(b, "3e") }
func BenchmarkFig3f(b *testing.B) { benchFig3(b, "3f") }
func BenchmarkFig3g(b *testing.B) { benchFig3(b, "3g") }
func BenchmarkFig3h(b *testing.B) { benchFig3(b, "3h") }

// benchFig4 reports Figure 4's two statistics as benchmark metrics for the
// pvrBase / pvrCAS pair under both mixes.
func benchFig4(b *testing.B, fig string) {
	f, err := bench.FigureByID(fig)
	if err != nil {
		b.Fatal(err)
	}
	spec := f.Spec(benchScale)
	for _, alg := range bench.FenceCurves {
		for _, mix := range bench.AllMixes {
			b.Run(fmt.Sprintf("%s-%dpctLookup", alg, mix.LookupPct()), func(b *testing.B) {
				m := runPanel(b, spec, alg, mix)
				b.ReportMetric(m.Stats.PercentWritersFenced(), "%fenced")
				b.ReportMetric(m.Stats.PercentVisibleReadsSkipped(), "%visSkipped")
			})
		}
	}
}

func BenchmarkFig4a(b *testing.B) { benchFig4(b, "4a") }
func BenchmarkFig4c(b *testing.B) { benchFig4(b, "4c") }
func BenchmarkFig4e(b *testing.B) { benchFig4(b, "4e") }
func BenchmarkFig4g(b *testing.B) { benchFig4(b, "4g") }

// BenchmarkSingleThreadOverhead reproduces the §V text comparison: every
// algorithm's single-thread cost on each structure (compare ops/sec across
// sub-benchmarks; TL2 is the privatization-unsafe upper bound).
func BenchmarkSingleThreadOverhead(b *testing.B) {
	specs := []bench.Spec{
		bench.Hashtable(64, 256),
		bench.BST(1 << 14),
		bench.MultiList(64, 64),
	}
	for _, spec := range specs {
		for _, alg := range bench.StandardCurves {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, alg), func(b *testing.B) {
				s := stm.MustNew(stm.Config{
					Algorithm: alg, HeapWords: spec.HeapWords,
					OrecCount: spec.OrecCount, MaxThreads: 2,
				})
				inst, err := spec.Build(s, rng.New(1))
				if err != nil {
					b.Fatal(err)
				}
				ctx := &bench.OpCtx{Th: s.MustNewThread(), RNG: rng.New(7), S: s}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					inst.Op(ctx, bench.ReadMostly)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
			})
		}
	}
}

// Ablation micro-benchmarks: the cost of a transactional read under each
// visibility discipline, isolating the §III design choices (CAS vs store
// updates, grace periods on/off).
func BenchmarkAblationReadVisibility(b *testing.B) {
	for _, alg := range []stm.Algorithm{stm.TL2, stm.PVRBase, stm.PVRCAS, stm.PVRStore, stm.PVRWriterOnly} {
		b.Run(alg.String(), func(b *testing.B) {
			s := stm.MustNew(stm.Config{Algorithm: alg, HeapWords: 1 << 12, OrecCount: 1 << 8, MaxThreads: 2})
			base := s.MustAlloc(64)
			th := s.MustNewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = th.Atomic(func(tx *stm.Tx) {
					for j := stm.Addr(0); j < 16; j++ {
						_ = tx.Load(base + j)
					}
				})
			}
			b.ReportMetric(float64(16), "reads/txn")
		})
	}
}

// BenchmarkNodeWalk is the per-node rung of the read path outside
// benchmark/: one transaction walks a 256-node list of two-word nodes the
// way every list and hashtable here does — `key`, then `next` — and the
// time is reported per node. It is where the block size shows: at
// BlockWords 1 the two loads pay the visibility step, the consistent read
// and the read-set probe twice; at the default 2 the node sits under one
// orec and the second load takes the same-block memo path.
func BenchmarkNodeWalk(b *testing.B) {
	const nodes = 256
	for _, alg := range []stm.Algorithm{stm.TL2, stm.PVRStore} {
		for _, bw := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/block%d", alg, bw), func(b *testing.B) {
				s := stm.MustNew(stm.Config{Algorithm: alg, BlockWords: bw, HeapWords: 1 << 12, MaxThreads: 2})
				head := s.MustAlloc(1)
				prev := head
				for k := 1; k <= nodes; k++ {
					n := s.MustAlloc(2) // [key, next]
					s.DirectStore(n, stm.Word(k))
					s.DirectStore(prev, stm.Word(n))
					prev = n + 1
				}
				th := s.MustNewThread()
				var sum stm.Word
				walk := func(tx *stm.Tx) {
					sum = 0
					for n := tx.LoadAddr(head); n != stm.Nil; n = tx.LoadAddr(n + 1) {
						sum += tx.Load(n)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = th.Atomic(walk)
				}
				b.StopTimer()
				if sum != nodes*(nodes+1)/2 {
					b.Fatalf("walk summed %d", sum)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nodes, "ns/node")
			})
		}
	}
}

// BenchmarkAblationWriteCommit measures a small read-modify-write
// transaction: encounter-time undo-log engines vs commit-time redo-log
// engines.
func BenchmarkAblationWriteCommit(b *testing.B) {
	for _, alg := range []stm.Algorithm{stm.TL2, stm.Ord, stm.Val, stm.PVRBase, stm.PVRStore, stm.PVRHybrid} {
		b.Run(alg.String(), func(b *testing.B) {
			s := stm.MustNew(stm.Config{Algorithm: alg, HeapWords: 1 << 12, OrecCount: 1 << 8, MaxThreads: 2})
			base := s.MustAlloc(8)
			th := s.MustNewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = th.Atomic(func(tx *stm.Tx) {
					for j := stm.Addr(0); j < 4; j++ {
						tx.Store(base+j, tx.Load(base+j)+1)
					}
				})
			}
		})
	}
}

// BenchmarkCentralList isolates the §II-C incomplete-transaction tracker —
// the bottleneck the paper identifies for short transactions — comparing
// the paper's locked central list against the lock-free registry-scan
// tracker and the cached-watermark slot tracker (the default).
func BenchmarkCentralList(b *testing.B) {
	for _, tc := range []struct {
		name    string
		tracker stm.TrackerKind
	}{{"list", stm.TrackerList}, {"scan", stm.TrackerScan}, {"slot", stm.TrackerSlot}} {
		b.Run(tc.name, func(b *testing.B) {
			s := stm.MustNew(stm.Config{
				Algorithm: stm.PVRBase, HeapWords: 1 << 10, OrecCount: 64,
				MaxThreads: 128, Tracker: tc.tracker,
			})
			a := s.MustAlloc(1)
			b.RunParallel(func(pb *testing.PB) {
				th := s.MustNewThread()
				for pb.Next() {
					// A tiny read-only transaction is almost pure
					// tracker traffic.
					_ = th.Atomic(func(tx *stm.Tx) { _ = tx.Load(a) })
				}
			})
		})
	}
}

// BenchmarkAblationFenceCap measures the commit-time threshold cap (§II-D
// future work) under a fence-heavy load: grace periods on, readers and
// writers sharing one hot block.
func BenchmarkAblationFenceCap(b *testing.B) {
	for _, tc := range []struct {
		name string
		cap  bool
	}{{"uncapped", false}, {"capped", true}} {
		b.Run(tc.name, func(b *testing.B) {
			s := stm.MustNew(stm.Config{
				Algorithm: stm.PVRCAS, HeapWords: 1 << 10, OrecCount: 64,
				MaxThreads: 128, CapFenceAtCommit: tc.cap,
			})
			a := s.MustAlloc(8)
			b.RunParallel(func(pb *testing.PB) {
				th := s.MustNewThread()
				i := 0
				for pb.Next() {
					if i++; i%4 == 0 {
						_ = th.Atomic(func(tx *stm.Tx) {
							tx.Store(a, tx.Load(a)+1)
						})
					} else {
						_ = th.Atomic(func(tx *stm.Tx) {
							for j := stm.Addr(0); j < 8; j++ {
								_ = tx.Load(a + j)
							}
						})
					}
				}
			})
		})
	}
}

// BenchmarkPrivatizedVsInstrumented quantifies the paper's core
// motivation (§I: a workload spending >95% of its time on privatized data
// needs zero-overhead access): summing a 4096-word region through the
// transactional API versus plain loads after privatizing it.
func BenchmarkPrivatizedVsInstrumented(b *testing.B) {
	const words = 4096
	s := stm.MustNew(stm.Config{Algorithm: stm.PVRStore, HeapWords: 1 << 14, MaxThreads: 2})
	base := s.MustAlloc(words)
	for i := stm.Addr(0); i < words; i++ {
		s.DirectStore(base+i, stm.Word(i))
	}
	th := s.MustNewThread()
	b.Run("transactional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum stm.Word
			_ = th.Atomic(func(tx *stm.Tx) {
				sum = 0
				for j := stm.Addr(0); j < words; j++ {
					sum += tx.Load(base + j)
				}
			})
			if sum == 0 {
				b.Fatal("bad sum")
			}
		}
	})
	b.Run("privatized", func(b *testing.B) {
		// One transaction "privatizes" (here: no concurrent sharers, so
		// the fence is free); the scan itself is uninstrumented.
		for i := 0; i < b.N; i++ {
			var sum stm.Word
			for j := stm.Addr(0); j < words; j++ {
				sum += s.DirectLoad(base + j)
			}
			if sum == 0 {
				b.Fatal("bad sum")
			}
		}
	})
}

// BenchmarkAblationGraceStrategy reproduces §III-A's design exploration:
// exponential vs linear vs hybrid grace adaptation on the long-transaction
// workload where grace periods matter most (large multi-list).
func BenchmarkAblationGraceStrategy(b *testing.B) {
	spec := bench.MultiList(16, 128)
	for _, tc := range []struct {
		name  string
		strat stm.GraceStrategy
	}{
		{"exponential", stm.GraceExponential},
		{"linear", stm.GraceLinear},
		{"hybrid", stm.GraceHybrid},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := stm.MustNew(stm.Config{
				Algorithm: stm.PVRCAS, HeapWords: spec.HeapWords,
				OrecCount: spec.OrecCount, MaxThreads: 128, GraceStrategy: tc.strat,
			})
			inst, err := spec.Build(s, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			var mu sync.Mutex
			var seq uint64
			var agg bench.Measurement
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				seq++
				ctx := &bench.OpCtx{Th: s.MustNewThread(), RNG: rng.New(seq), S: s}
				mu.Unlock()
				for pb.Next() {
					inst.Op(ctx, bench.ReadMostly)
				}
				mu.Lock()
				agg.Stats.Add(ctx.Th.Stats())
				mu.Unlock()
			})
			b.StopTimer()
			b.ReportMetric(agg.Stats.PercentVisibleReadsSkipped(), "%visSkipped")
			b.ReportMetric(agg.Stats.PercentWritersFenced(), "%fenced")
		})
	}
}

// BenchmarkAblationTrackerUnderLoad compares the three trackers on the
// paper's short-transaction workload (hashtable), where §V blames the
// central list for pvr flattening.
func BenchmarkAblationTrackerUnderLoad(b *testing.B) {
	spec := bench.Hashtable(64, 256)
	for _, tc := range []struct {
		name    string
		tracker stm.TrackerKind
	}{{"list", stm.TrackerList}, {"scan", stm.TrackerScan}, {"slot", stm.TrackerSlot}} {
		b.Run(tc.name, func(b *testing.B) {
			s := stm.MustNew(stm.Config{
				Algorithm: stm.PVRStore, HeapWords: spec.HeapWords,
				OrecCount: spec.OrecCount, MaxThreads: 128, Tracker: tc.tracker,
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
				ctx := &bench.OpCtx{Th: s.MustNewThread(), RNG: rng.New(seq), S: s}
				mu.Unlock()
				for pb.Next() {
					inst.Op(ctx, bench.ReadMostly)
				}
			})
		})
	}
}
