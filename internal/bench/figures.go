package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	stm "privstm"
)

// Figure identifies one reproducible experiment: a panel of the paper's
// Figure 3 (throughput) or Figure 4 (fence/visibility statistics), or the
// single-thread overhead comparison quoted in §V's text.
type Figure struct {
	// ID is the panel identifier ("3a" … "3h", "4a" … "4g", "t1").
	ID string
	// Title matches the paper's panel caption.
	Title string
	// Kind is "throughput", "fence-stats" or "overhead".
	Kind string
	// Spec builds the workload (scaled by the harness's scale factor).
	Spec func(scale int) Spec
	// Mix is the operation distribution. Fence-stat figures run both
	// paper mixes; throughput figures run exactly this one.
	Mix Mix
	// Algorithms are the curves. Empty means the paper's standard eight.
	Algorithms []stm.Algorithm
}

// StandardCurves is the curve set of every Figure 3 panel, in the paper's
// legend order.
var StandardCurves = []stm.Algorithm{
	stm.TL2, stm.Ord, stm.Val,
	stm.PVRBase, stm.PVRCAS, stm.PVRStore, stm.PVRWriterOnly, stm.PVRHybrid,
}

// FenceCurves is the pair Figure 4 contrasts.
var FenceCurves = []stm.Algorithm{stm.PVRBase, stm.PVRCAS}

// scaled divides n by the scale divisor, with a floor.
func scaled(n, scale, min int) int {
	v := n / scale
	if v < min {
		v = min
	}
	return v
}

// Figures is the experiment index: every panel of the paper's evaluation.
// The scale parameter divides the structure sizes so the suite can run
// quickly in CI (scale=1 reproduces the paper's parameters).
var Figures = []Figure{
	{ID: "3a", Title: "hashtable 64 buckets, 256 keys (10/10/80)", Kind: "throughput",
		Spec: func(scale int) Spec { return Hashtable(64, scaled(256, scale, 64)) }, Mix: ReadMostly},
	{ID: "3b", Title: "hashtable 64 buckets, 256 keys (40/40/20)", Kind: "throughput",
		Spec: func(scale int) Spec { return Hashtable(64, scaled(256, scale, 64)) }, Mix: WriteHeavy},
	{ID: "3c", Title: "bst 1M keys (10/10/80)", Kind: "throughput",
		Spec: func(scale int) Spec { return BST(scaled(1<<20, scale, 1<<12)) }, Mix: ReadMostly},
	{ID: "3d", Title: "bst 1M keys (40/40/20)", Kind: "throughput",
		Spec: func(scale int) Spec { return BST(scaled(1<<20, scale, 1<<12)) }, Mix: WriteHeavy},
	{ID: "3e", Title: "multi-list 64 lists, 64 entries (10/10/80)", Kind: "throughput",
		Spec: func(scale int) Spec { return MultiList(64, 64) }, Mix: ReadMostly},
	{ID: "3f", Title: "multi-list 64 lists, 64 entries (40/40/20)", Kind: "throughput",
		Spec: func(scale int) Spec { return MultiList(64, 64) }, Mix: WriteHeavy},
	{ID: "3g", Title: "multi-list 64 lists, 512 entries (10/10/80)", Kind: "throughput",
		Spec: func(scale int) Spec { return MultiList(64, scaled(512, scale, 128)) }, Mix: ReadMostly},
	{ID: "3h", Title: "multi-list 64 lists, 512 entries (40/40/20)", Kind: "throughput",
		Spec: func(scale int) Spec { return MultiList(64, scaled(512, scale, 128)) }, Mix: WriteHeavy},

	{ID: "4a", Title: "hashtable: % fences hit / % visible reads skipped", Kind: "fence-stats",
		Spec: func(scale int) Spec { return Hashtable(64, scaled(256, scale, 64)) }, Algorithms: FenceCurves},
	{ID: "4c", Title: "bst: % fences hit / % visible reads skipped", Kind: "fence-stats",
		Spec: func(scale int) Spec { return BST(scaled(1<<20, scale, 1<<12)) }, Algorithms: FenceCurves},
	{ID: "4e", Title: "multi-list 64x64: % fences hit / % visible reads skipped", Kind: "fence-stats",
		Spec: func(scale int) Spec { return MultiList(64, 64) }, Algorithms: FenceCurves},
	{ID: "4g", Title: "multi-list 64x512: % fences hit / % visible reads skipped", Kind: "fence-stats",
		Spec: func(scale int) Spec { return MultiList(64, scaled(512, scale, 128)) }, Algorithms: FenceCurves},

	{ID: "t1", Title: "single-thread overhead vs TL2 (§V text)", Kind: "overhead"},
}

// FigureByID returns the figure with the given ID.
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("bench: unknown figure %q (have 3a-3h, 4a/4c/4e/4g, t1)", id)
}

// HarnessConfig controls a figure regeneration run.
type HarnessConfig struct {
	// Threads is the thread sweep (the paper used 1..32).
	Threads []int
	// TxnsPerThread fixes per-thread work; if 0, Duration is used.
	TxnsPerThread int
	Duration      time.Duration
	// Scale divides structure sizes (1 = paper scale).
	Scale int
	// Reps is the number of runs averaged per cell (the paper used 3).
	Reps int
	Seed uint64
	// MaxAttempts is the abort budget before serialized-irrevocable
	// escalation (0 = default, negative disables).
	MaxAttempts int
	// ZipfTheta skews the key distribution for every cell (0 = uniform,
	// the paper's setting; (0,1) = YCSB-style Zipf, larger is hotter).
	ZipfTheta float64
}

func (hc *HarnessConfig) fill() {
	if len(hc.Threads) == 0 {
		hc.Threads = []int{1, 2, 4, 8, 16, 32}
	}
	if hc.Scale <= 0 {
		hc.Scale = 1
	}
	if hc.TxnsPerThread == 0 && hc.Duration == 0 {
		hc.Duration = 200 * time.Millisecond
	}
	if hc.Reps <= 0 {
		hc.Reps = 1
	}
}

// runConfig is the RunConfig of one (algorithm, threads, mix) cell under
// the harness-wide settings.
func (hc *HarnessConfig) runConfig(alg stm.Algorithm, threads int, mix Mix) RunConfig {
	return RunConfig{
		Algorithm: alg, Threads: threads, Mix: mix,
		TxnsPerThread: hc.TxnsPerThread, Duration: hc.Duration, Seed: hc.Seed,
		MaxAttempts: hc.MaxAttempts,
		ZipfTheta:   hc.ZipfTheta,
	}
}

// runCell executes one (spec, algorithm, threads, mix) cell hc.Reps times
// and merges the runs: throughput is total operations over total elapsed
// time, counters are summed (their Figure-4 percentages are ratios, so
// summing is the right aggregation).
func runCell(spec Spec, rc RunConfig, reps int) (*Measurement, error) {
	var agg *Measurement
	for i := 0; i < reps; i++ {
		rc.Seed += uint64(i) * 7919
		m, err := Run(spec, rc)
		if err != nil {
			return nil, err
		}
		if agg == nil {
			agg = m
		} else {
			agg.Ops += m.Ops
			agg.Elapsed += m.Elapsed
			agg.Stats.Add(&m.Stats)
			agg.ReclaimCollects += m.ReclaimCollects
		}
		agg.RepThroughputs = append(agg.RepThroughputs, m.Throughput)
	}
	if agg.Elapsed > 0 {
		agg.Throughput = float64(agg.Ops) / agg.Elapsed.Seconds()
	}
	return agg, nil
}

// RunFigure regenerates one figure, writing the paper-style rows to w and
// returning the raw measurements.
func RunFigure(w io.Writer, fig Figure, hc HarnessConfig) ([]*Measurement, error) {
	hc.fill()
	var ms []*Measurement
	var err error
	switch fig.Kind {
	case "throughput":
		ms, err = runThroughput(w, fig, hc)
	case "fence-stats":
		ms, err = runFenceStats(w, fig, hc)
	case "overhead":
		ms, err = runOverhead(w, hc)
	default:
		return nil, fmt.Errorf("bench: unknown figure kind %q", fig.Kind)
	}
	for _, m := range ms {
		m.Fig = fig.ID
	}
	return ms, err
}

func runThroughput(w io.Writer, fig Figure, hc HarnessConfig) ([]*Measurement, error) {
	algos := fig.Algorithms
	if len(algos) == 0 {
		algos = StandardCurves
	}
	fmt.Fprintf(w, "Figure %s: %s — operations per second\n", fig.ID, fig.Title)
	fmt.Fprintf(w, "%-14s", "threads")
	for _, th := range hc.Threads {
		fmt.Fprintf(w, "%12d", th)
	}
	fmt.Fprintln(w)
	var all []*Measurement
	for _, alg := range algos {
		fmt.Fprintf(w, "%-14s", alg)
		for _, th := range hc.Threads {
			m, err := runCell(fig.Spec(hc.Scale), hc.runConfig(alg, th, fig.Mix), hc.Reps)
			if err != nil {
				return nil, err
			}
			all = append(all, m)
			fmt.Fprintf(w, "%12.0f", m.Throughput)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return all, nil
}

func runFenceStats(w io.Writer, fig Figure, hc HarnessConfig) ([]*Measurement, error) {
	algos := fig.Algorithms
	if len(algos) == 0 {
		algos = FenceCurves
	}
	// Run every (algorithm, mix, threads) cell once; print both metric
	// tables from the same measurements.
	type row struct {
		label string
		ms    []*Measurement
	}
	var rows []row
	var all []*Measurement
	for _, alg := range algos {
		for _, mix := range AllMixes {
			r := row{label: fmt.Sprintf("%s (%d%% lookups)", alg, mix.LookupPct())}
			for _, th := range hc.Threads {
				m, err := runCell(fig.Spec(hc.Scale), hc.runConfig(alg, th, mix), hc.Reps)
				if err != nil {
					return nil, err
				}
				r.ms = append(r.ms, m)
				all = append(all, m)
			}
			rows = append(rows, r)
		}
	}
	for _, metric := range []string{"percent writers fenced", "percent visible reads skipped"} {
		fmt.Fprintf(w, "Figure %s: %s — %s\n", fig.ID, fig.Title, metric)
		fmt.Fprintf(w, "%-28s", "threads")
		for _, th := range hc.Threads {
			fmt.Fprintf(w, "%9d", th)
		}
		fmt.Fprintln(w)
		for _, r := range rows {
			fmt.Fprintf(w, "%-28s", r.label)
			for _, m := range r.ms {
				v := m.Stats.PercentWritersFenced()
				if metric == "percent visible reads skipped" {
					v = m.Stats.PercentVisibleReadsSkipped()
				}
				fmt.Fprintf(w, "%9.1f", v)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return all, nil
}

// runOverhead reproduces §V's single-thread comparison: every algorithm's
// one-thread throughput on each structure, normalized to TL2.
func runOverhead(w io.Writer, hc HarnessConfig) ([]*Measurement, error) {
	specs := []Spec{
		Hashtable(64, scaled(256, hc.Scale, 64)),
		BST(scaled(1<<20, hc.Scale, 1<<12)),
		MultiList(64, scaled(512, hc.Scale, 128)),
	}
	fmt.Fprintf(w, "Single-thread throughput relative to TL2 (1.00 = TL2), mix %s\n", ReadMostly)
	fmt.Fprintf(w, "%-14s", "algorithm")
	for _, sp := range specs {
		fmt.Fprintf(w, "%22s", sp.Name)
	}
	fmt.Fprintln(w)
	var all []*Measurement
	base := map[string]float64{}
	for _, alg := range StandardCurves {
		row := make([]float64, len(specs))
		for i, sp := range specs {
			m, err := runCell(sp, hc.runConfig(alg, 1, ReadMostly), hc.Reps)
			if err != nil {
				return nil, err
			}
			all = append(all, m)
			row[i] = m.Throughput
			if alg == stm.TL2 {
				base[sp.Name] = m.Throughput
			}
		}
		fmt.Fprintf(w, "%-14s", alg)
		for i, sp := range specs {
			rel := 0.0
			if b := base[sp.Name]; b > 0 {
				rel = row[i] / b
			}
			fmt.Fprintf(w, "%22.2f", rel)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return all, nil
}

// FigureIDs returns all known figure ids in order.
func FigureIDs() []string {
	ids := make([]string, len(Figures))
	for i, f := range Figures {
		ids[i] = f.ID
	}
	return ids
}

// WriteCSV emits measurements as CSV rows (with header) for external
// plotting: workload, algorithm, threads, mix, ops, seconds, ops/sec,
// %fenced, %visible-reads-skipped, aborts, commits.
func WriteCSV(w io.Writer, ms []*Measurement) {
	fmt.Fprintln(w, "workload,algorithm,threads,mix,ops,seconds,ops_per_sec,pct_fenced,pct_vis_skipped,aborts,commits")
	for _, m := range ms {
		fmt.Fprintf(w, "%q,%s,%d,%s,%d,%.4f,%.1f,%.2f,%.2f,%d,%d\n",
			m.Workload, m.Algorithm, m.Threads, m.Mix,
			m.Ops, m.Elapsed.Seconds(), m.Throughput,
			m.Stats.PercentWritersFenced(), m.Stats.PercentVisibleReadsSkipped(),
			m.Stats.Aborts, m.Stats.Commits)
	}
}

// SortMeasurements orders measurements by (workload, algorithm, threads)
// for stable test output.
func SortMeasurements(ms []*Measurement) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Algorithm != b.Algorithm {
			return a.Algorithm < b.Algorithm
		}
		return a.Threads < b.Threads
	})
}

// ParseThreads parses a comma-separated thread list like "1,2,4,8".
func ParseThreads(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("bench: bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
