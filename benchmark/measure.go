package main

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	stm "privstm"
	"privstm/internal/rng"
)

// runConfig is what one measuring process is asked to do.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Smoke shrinks every count so the whole benchmark runs in seconds;
	// its numbers mean nothing, its checks are the real ones.
	Smoke bool
	// SetupOnly stops after set-up: the parent sets up several times per
	// run and reports the median.
	SetupOnly bool
	// Started is when the parent launched this process; set-up time is
	// measured from it, so process start-up counts.
	Started time.Time
	// OutDir receives the raw spans of a traced run.
	OutDir string
}

// sliceResult is one timed slice: a fixed number of operations.
type sliceResult struct {
	Traced     bool                `json:"traced"`
	Ops        int                 `json:"ops"`
	WallS      float64             `json:"wall_s"`
	OpsPerS    float64             `json:"ops_per_s"`
	CPUUsPerOp float64             `json:"cpu_us_per_op"`
	P50Us      [numClasses]float64 `json:"p50_us"`
	P99Us      [numClasses]float64 `json:"p99_us"`
	Samples    [numClasses]int     `json:"samples"`
}

// workloadResult is everything one measuring process reports.
type workloadResult struct {
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Procs     int           `json:"gomaxprocs"`
	SetupS    float64       `json:"setup_s"`
	PeakRSSMB float64       `json:"peak_rss_mb"`
	SliceOps  int           `json:"slice_ops"`
	Slices    []sliceResult `json:"slices"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Failures  []string      `json:"failures,omitempty"`
	// Counter deltas over the timed slices.
	Counters  map[string]float64    `json:"counters"`
	Spans     map[string]spanTotals `json:"spans,omitempty"`
	SpanDrops int                   `json:"spans_dropped,omitempty"`
}

// measure runs one workload: set-up, then fixed-count timed slices with an
// untimed collection between them, then the correctness checks.
func measure(cfg runConfig) (*workloadResult, error) {
	spec, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	sliceOps := int(float64(spec.sliceOps) * cfg.Seconds / refSeconds)
	warmOps, nslices := spec.warmOps, timedSlices
	if cfg.Trace {
		// Untraced and traced slices alternate: their difference is the
		// tracing overhead.
		nslices = tracedRunSlices
	}
	if cfg.Smoke {
		sliceOps, warmOps, nslices = spec.sliceOps/40, spec.warmOps/400, 4
	}
	perWorker := max(sliceOps/numWorkers, 16)
	sliceOps = perWorker * numWorkers

	load := spec.build()
	workers, err := load.setup(cfg.Seed, numWorkers)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
	}
	// Latency samples and spans go to buffers sized here, once: nothing
	// the measurement itself does allocates inside a slice.
	drivers := make([]*driver, numWorkers)
	epoch := time.Now()
	for i, w := range workers {
		d := &driver{w: w, r: rng.New(cfg.Seed ^ uint64(i+1)<<32), spec: &spec}
		roots := 0
		for c := range d.lat {
			// The class's expected share of the slice, and slack for a
			// draw that runs above it.
			n := perWorker*spec.mix[c]/100/spec.sampleEvery[c]*5/4 + 64
			d.lat[c] = make([]int64, 0, n)
			roots += n
		}
		if cfg.Trace {
			// A root per timed operation of each traced slice, and up to
			// three spans inside each privatization.
			d.rec = newSpans(epoch, (roots+3*cap(d.lat[classPriv]))*(nslices/2))
		}
		drivers[i] = d
	}
	res := &workloadResult{Workload: cfg.Workload, Seed: cfg.Seed, Procs: runtime.GOMAXPROCS(0), SliceOps: sliceOps}
	runSlice := func(ops int, traced bool) (failed int) {
		var wg sync.WaitGroup
		for _, d := range drivers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.run(ops, traced)
			}()
		}
		wg.Wait()
		for _, d := range drivers {
			failed += d.failed
			d.failed = 0
		}
		return failed
	}
	// The warm-up is a fixed amount of work and part of set-up, so a
	// change that makes set-up faster shows in setup_s.
	warmOps = max(warmOps/numWorkers, 1) * numWorkers
	res.Failed += runSlice(warmOps/numWorkers, false)
	res.Attempted += warmOps
	res.SetupS = time.Since(cfg.Started).Seconds()
	if cfg.SetupOnly {
		return res, nil
	}

	var ms0, ms1 runtime.MemStats
	var allocs, allocBytes, gcs uint64
	// Settle first, and discard it: the structures age for a few seconds
	// after a preload (recycled nodes scatter, grace periods adapt), and
	// that transient is not what a long-running user sees.
	res.Failed += runSlice(settleSlices*perWorker, false)
	res.Attempted += settleSlices * sliceOps
	before := load.counters()
	var sorted []int64
	for si := 0; si < nslices; si++ {
		traced := cfg.Trace && si%2 == 1
		for _, d := range drivers {
			for c := range d.lat {
				d.lat[c] = d.lat[c][:0]
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuSeconds()
		start := time.Now()
		res.Failed += runSlice(perWorker, traced)
		wall := time.Since(start).Seconds()
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&ms1)
		res.Attempted += sliceOps
		allocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)

		sl := sliceResult{Traced: traced, Ops: sliceOps, WallS: wall,
			OpsPerS: float64(sliceOps) / wall, CPUUsPerOp: 1e6 * cpu / float64(sliceOps)}
		for c := range sl.P50Us {
			sorted = sorted[:0]
			for _, d := range drivers {
				sorted = append(sorted, d.lat[c]...)
			}
			slices.Sort(sorted)
			sl.Samples[c] = len(sorted)
			sl.P50Us[c] = float64(percentile(sorted, 0.50)) / 1e3
			sl.P99Us[c] = float64(percentile(sorted, 0.99)) / 1e3
		}
		res.Slices = append(res.Slices, sl)
	}
	after := load.counters()
	ops := float64(len(res.Slices) * sliceOps)
	res.Counters = counterMetrics(before, after, ops)
	res.Counters["go.allocs_per_op"] = float64(allocs) / ops
	res.Counters["go.alloc_bytes_per_op"] = float64(allocBytes) / ops
	res.Counters["go.gc_cycles"] = float64(gcs)

	if cfg.Trace {
		bufs := make([][]span, numWorkers)
		for i, d := range drivers {
			bufs[i] = d.rec.buf
			res.SpanDrops += d.rec.dropped
		}
		res.Spans = aggregateSpans(bufs...)
		reads, writes := countAccesses(drivers[0], 256)
		res.Counters["stm.reads_per_op"] = reads
		res.Counters["stm.writes_per_op"] = writes
		if err := writeSpans(cfg.OutDir, cfg.Workload, bufs); err != nil {
			return nil, err
		}
	}

	failures, extra := load.finish()
	res.Failures = failures
	res.Failed += len(failures)
	for k, v := range extra {
		res.Counters[k] = v
	}
	res.Counters["reclaim.limbo_end"] = float64(load.counters().reclaim.Limbo)
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

// driver is the closed loop around one worker: it draws each operation's
// class from the workload's mix, times the sampled ones and keeps the
// samples.
type driver struct {
	w      worker
	r      *rng.RNG
	spec   *workloadSpec
	seen   [numClasses]int     // operations of each class so far, for the stride
	lat    [numClasses][]int64 // this slice's latency samples, ns
	rec    *spans              // nil unless the run is traced
	failed int
}

// next draws the class of the next operation.
func (d *driver) next() class {
	p := d.r.Pct()
	switch mix := &d.spec.mix; {
	case p < mix[classRead]:
		return classRead
	case p < mix[classRead]+mix[classWrite]:
		return classWrite
	}
	return classPriv
}

// run is one worker's share of a slice: n operations back to back. A
// traced slice also records each timed operation as a root span, from the
// same two clock reads.
func (d *driver) run(n int, traced bool) {
	var sp *spans
	if traced {
		sp = d.rec
	}
	for i := 0; i < n; i++ {
		c := d.next()
		d.seen[c]++
		if d.seen[c]&(d.spec.sampleEvery[c]-1) != 0 {
			if !d.w.op(c, nil) {
				d.failed++
			}
			continue
		}
		t0 := time.Now()
		var id int32 = -1
		if sp != nil {
			id = sp.beginAt(spanName(c), t0) // op.read, op.write, op.priv
		}
		ok := d.w.op(c, sp)
		t1 := time.Now()
		if id >= 0 {
			sp.endAt(id, t1)
		}
		if len(d.lat[c]) < cap(d.lat[c]) {
			d.lat[c] = append(d.lat[c], int64(t1.Sub(t0)))
		}
		if !ok {
			d.failed++
		}
	}
}

// counterMetrics turns counter deltas into the per-layer ratios. A ratio
// whose layer the workload cannot see is 0.
func counterMetrics(a, b layerCounters, ops float64) map[string]float64 {
	d := func(x, y uint64) float64 { return float64(y - x) }
	ratio := func(num, den, scale float64) float64 {
		if den == 0 {
			return 0
		}
		return scale * num / den
	}
	s0, s1 := &a.stm, &b.stm
	commits := d(s0.Commits, s1.Commits)
	fenced := d(s0.Fenced, s1.Fenced)
	return map[string]float64{
		"stm.attempts_per_commit":     ratio(commits+d(s0.Aborts, s1.Aborts), commits, 1),
		"core.aborts_per_kop":         ratio(d(s0.Aborts, s1.Aborts), ops, 1e3),
		"core.fenced_pct":             ratio(fenced, d(s0.WriterCommits, s1.WriterCommits), 100),
		"core.pv_skipped_pct":         ratio(d(s0.PVSkipped, s1.PVSkipped), d(s0.PVReads, s1.PVReads), 100),
		"core.fence_spins_per_fenced": ratio(d(s0.FenceSpins, s1.FenceSpins), fenced, 1),
		"core.validations_per_kop":    ratio(d(s0.Validations, s1.Validations), ops, 1e3),
		"core.extensions_per_kop":     ratio(d(s0.Extensions, s1.Extensions), ops, 1e3),
		"core.serialized_per_mop":     ratio(d(s0.Serialized, s1.Serialized), ops, 1e6),
		"core.sem_conflicts_per_kop":  ratio(d(s0.AbstractLockConflicts, s1.AbstractLockConflicts), ops, 1e3),
		"core.weak_reads_per_op":      ratio(d(s0.WeakReads, s1.WeakReads), ops, 1),
		"reclaim.collects_per_mop":    ratio(d(a.reclaim.Collects, b.reclaim.Collects), ops, 1e6),
		"server.committed_per_req":    ratio(d(a.committed, b.committed), ops, 1),
		"server.privatize_ops":        d(a.privatizeOps, b.privatizeOps),
	}
}

// countAccesses runs n more operations on w with the STM's own event trace
// on and returns the logged loads and stores per operation (weak reads are
// not logged; core.weak_reads_per_op counts those). It returns zeros when
// the worker's STM thread is out of reach.
func countAccesses(d *driver, n int) (reads, writes float64) {
	th := d.w.thread()
	if th == nil {
		return 0, 0
	}
	th.EnableTrace(1 << 18)
	d.run(n, false)
	for _, e := range th.Trace() {
		switch e.Kind {
		case stm.TraceRead:
			reads++
		case stm.TraceWrite:
			writes++
		}
	}
	th.DisableTrace()
	return reads / float64(n), writes / float64(n)
}

// cpuSeconds is the process's user plus system CPU time. Per completed
// operation it catches spin-waiting that wall time hides, and a noisy
// neighbour moves it less than it moves wall time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	m := vmHWM.FindSubmatch(status)
	if m == nil {
		return 0
	}
	kb, _ := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024
}
