// Command benchmark is the repository's one repeatable benchmark: four
// workloads on the pvrStore engine, seven end-to-end metrics on each, and
// a per-layer pass (-trace 1) that says where the time went. README.md in
// this directory explains the design; BENCHMARK.json at the repository
// root fixes the names, units and regression bounds.
//
//	go run -C benchmark .                          every workload, end to end
//	go run -C benchmark . -workload list_read      one workload
//	go run -C benchmark . -trace 1                 per-layer metrics
//	go run -C benchmark . -aa 5                    A/A calibration
//	go run -C benchmark . -smoke                   seconds-long self-check
//
// Each workload is measured in a child process of its own, so no workload
// inherits another's heap, and set-up time includes process start.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	aa       int
	outDir   string
	// Set only on the processes this program launches itself.
	child     bool
	setupOnly bool
	started   int64 // launch time, Unix nanoseconds
}

// setupRuns is how many times a run sets a workload up; setup_s is their
// median, since one process start is at the scheduler's mercy.
const setupRuns = 5

// childTimeout bounds one measuring process, well inside the 180 s a run
// may take.
const childTimeout = 150 * time.Second

func main() {
	var o options
	var trace int
	var seed string
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four)")
	flag.StringVar(&seed, "seed", "1", "seed the workload's inputs are generated from (any 64-bit integer)")
	flag.Float64Var(&o.seconds, "seconds", refSeconds, "measuring time the fixed slice counts are scaled to")
	flag.IntVar(&trace, "trace", 0, "1: report the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny counts: exercise every path and check in seconds")
	flag.IntVar(&o.aa, "aa", 0, "A/A calibration: two interleaved sets of this many full runs")
	flag.StringVar(&o.outDir, "outdir", "out", "directory for the detail and span files")
	flag.BoolVar(&o.child, "child", false, "internal: measure in this process and print the result as JSON")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: stop after set-up")
	flag.Int64Var(&o.started, "started", 0, "internal: launch time, Unix nanoseconds")
	flag.Parse()
	o.trace = trace != 0

	err := parseSeed(seed, &o.seed)
	if err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// parseSeed accepts a signed or unsigned 64-bit integer; a negative seed
// names the same stream as its two's complement.
func parseSeed(s string, seed *uint64) error {
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		*seed = u
		return nil
	}
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return fmt.Errorf("-seed %q is not a 64-bit integer", s)
	}
	*seed = uint64(i)
	return nil
}

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	// Two workers on one processor would time the scheduler's slices, not
	// the system.
	if runtime.NumCPU() < numWorkers {
		return fmt.Errorf("need at least %d processors, have %d", numWorkers, runtime.NumCPU())
	}
	if o.child {
		return runChild(o)
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, s := range workloadSpecs {
			names = append(names, s.name)
		}
	} else if _, ok := findWorkload(o.workload); !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.aa > 0 {
		return runAA(o, names)
	}
	reports, err := runWorkloads(o, names)
	if err != nil {
		return err
	}
	return printReports(o, reports)
}

// runChild is the measuring process: one workload (or the ladder), result
// on standard output.
func runChild(o options) error {
	var res any
	var err error
	if o.workload == "ladder" {
		res, err = runLadder(o.seed, o.smoke)
	} else {
		res, err = measure(runConfig{Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
			Trace: o.trace, Smoke: o.smoke, SetupOnly: o.setupOnly, Started: time.Unix(0, o.started), OutDir: o.outDir})
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs this program again as a measuring process and decodes what it
// prints into res. The child gets two processors, as many as it has
// workers.
func spawn(o options, workload string, setupOnly bool, res any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-outdir", o.outDir,
		"-started", strconv.FormatInt(time.Now().UnixNano(), 10)}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(numWorkers))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return fmt.Errorf("%s child: %w", workload, err)
	}
	if err := json.Unmarshal(out, res); err != nil {
		return fmt.Errorf("%s child output: %w", workload, err)
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's run: the metrics BENCHMARK.json names, and the
// detail behind them.
type report struct {
	Stamp    stamp             `json:"stamp"`
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Metrics  map[string]metric `json:"metrics"`
	// SliceStats has, for each time-valued end-to-end metric, the median
	// and quartiles of its slice values (the values are in Result.Slices):
	// the fast-decile mean in Metrics is an estimator, and this is what it
	// estimates from.
	SliceStats map[string]sliceStats `json:"slice_stats,omitempty"`
	SetupsS    []float64             `json:"setups_s,omitempty"`
	Result     *workloadResult       `json:"result"`
	Ladder     map[string]float64    `json:"ladder,omitempty"`
	Design     map[string]float64    `json:"design,omitempty"`
	// Claim is the performance claim this run supports. The benchmark
	// itself claims none.
	Claim *string `json:"claim"`
}

type sliceStats struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func runWorkloads(o options, names []string) ([]*report, error) {
	st := hostStamp()
	var ladder map[string]float64
	if o.trace {
		if err := spawn(o, "ladder", false, &ladder); err != nil {
			return nil, err
		}
	}
	var reports []*report
	for _, name := range names {
		rep := &report{Stamp: st, Workload: name, Seed: o.seed, Trace: o.trace, Ladder: ladder}
		if !o.trace {
			for i := 1; i < setupRuns; i++ {
				var r workloadResult
				if err := spawn(o, name, true, &r); err != nil {
					return nil, err
				}
				rep.SetupsS = append(rep.SetupsS, r.SetupS)
			}
		}
		rep.Result = new(workloadResult)
		if err := spawn(o, name, false, rep.Result); err != nil {
			return nil, err
		}
		rep.SetupsS = append(rep.SetupsS, rep.Result.SetupS)
		if o.trace {
			rep.perLayer()
		} else {
			rep.endToEnd()
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// sliceValues returns f over the traced or untraced slices.
func (r *report) sliceValues(traced bool, f func(*sliceResult) float64) []float64 {
	var xs []float64
	for i := range r.Result.Slices {
		if sl := &r.Result.Slices[i]; sl.Traced == traced {
			xs = append(xs, f(sl))
		}
	}
	return xs
}

// endToEnd fills Metrics with the seven end-to-end metrics.
func (r *report) endToEnd() {
	vals := map[string]float64{
		"setup_s":     median(r.SetupsS),
		"peak_rss_mb": r.Result.PeakRSSMB,
	}
	r.SliceStats = make(map[string]sliceStats)
	timeValued := func(name string, higherBetter bool, f func(*sliceResult) float64) {
		xs := r.sliceValues(false, f)
		vals[name] = fastMean(xs, higherBetter)
		var ss sliceStats
		if len(xs) > 1 {
			ss.Q1, ss.Median, ss.Q3 = quartiles(xs)
		}
		r.SliceStats[name] = ss
	}
	timeValued("ops_per_s", true, func(s *sliceResult) float64 { return s.OpsPerS })
	timeValued("cpu_us_per_op", false, func(s *sliceResult) float64 { return s.CPUUsPerOp })
	for c, name := range classNames {
		timeValued(name+"_p50_us", false, func(s *sliceResult) float64 { return s.P50Us[c] })
	}
	r.Metrics = make(map[string]metric)
	for _, d := range endToEndMetrics {
		r.Metrics[d.Name] = metric{vals[d.Name], d.Unit}
	}
}

// perLayer fills Metrics with every per-layer metric: the ladder's rungs,
// this workload's counter ratios, and what the run says about itself.
func (r *report) perLayer() {
	vals := make(map[string]float64)
	for k, v := range r.Ladder {
		vals[k] = v
	}
	for k, v := range r.Result.Counters {
		vals[k] = v
	}
	if sp := r.Result.Spans; sp[spanNames[spanSnapshot]].Count > 0 {
		// This workload privatizes buckets itself: its own spans, taken
		// with a second client running, replace the ladder's idle ones.
		nodes := int(r.Result.Counters["priv_nodes_traced"])
		vals["tds.snapshot_us"], vals["tds.walk_ns_per_node"], vals["tds.retire_us"] = privSpanMetrics(sp, nodes)
	}
	for c, name := range classNames {
		p99 := r.sliceValues(false, func(s *sliceResult) float64 { return s.P99Us[c] })
		vals["tail."+name+"_p99_us"] = fastMean(p99, false)
	}
	plain := r.sliceValues(false, func(s *sliceResult) float64 { return s.OpsPerS })
	traced := r.sliceValues(true, func(s *sliceResult) float64 { return s.OpsPerS })
	fast := fastMean(plain, true)
	slow := 0
	for _, x := range plain {
		if x < 0.9*fast {
			slow++
		}
	}
	// A program that is itself bimodal must not hide behind an estimator
	// that only looks at its fast slices.
	vals["run.slow_slices"] = float64(slow)
	vals["trace.overhead_pct"] = 100 * (fast - fastMean(traced, true)) / fast

	r.Metrics = make(map[string]metric)
	for _, d := range perLayerMetrics() {
		r.Metrics[d.Name] = metric{vals[d.Name], d.Unit}
	}

	// The workload's design, checked against the trace: what share of an
	// operation is first loads of words, and what share of a request is
	// STM at all, by the ladder's uncontended prices.
	opNs := 1e9 * numWorkers / fast
	loadNs := vals["stm.load_ns"] * vals["stm.reads_per_op"]
	readP50 := r.sliceValues(false, func(s *sliceResult) float64 { return s.P50Us[classRead] })
	r.Design = map[string]float64{
		"op_ns":                      opNs,
		"load_share_of_op_pct":       100 * loadNs / opNs,
		"load_share_of_read_p50_pct": 100 * loadNs / (1e3 * fastMean(readP50, false)),
	}
	if r.Workload == "serve_mixed" {
		spec, _ := findWorkload(r.Workload)
		perKey := (float64(spec.mix[classRead])*vals["tds.get_ns"] +
			float64(spec.mix[classWrite])*(vals["tds.put_ns"]+vals["tds.delete_ns"])/2) / 100
		r.Design["stm_share_of_op_pct"] = 100 * (vals["stm.atomic_w1_ns"] + serveBatch*perKey) / opNs
	}
}

func printReports(o options, reports []*report) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	all := make(map[string]metric)
	attempted, failed := 0, 0
	for _, r := range reports {
		res := r.Result
		fmt.Printf("== %s  seed %d  %d slices x %d ops  attempted %d  failed %d\n",
			r.Workload, r.Seed, len(res.Slices), res.SliceOps, res.Attempted, res.Failed)
		for _, f := range res.Failures {
			fmt.Printf("   FAILED CHECK: %s\n", f)
		}
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			m := r.Metrics[name]
			fmt.Printf("%-36s %16.6f %s\n", name, m.Value, m.Unit)
			if len(reports) > 1 {
				name = r.Workload + "." + name
			}
			all[name] = m
		}
		attempted += res.Attempted
		failed += res.Failed
		detail := filepath.Join(o.outDir, fmt.Sprintf("%s.trace%d.json", r.Workload, btoi(o.trace)))
		if err := writeJSON(detail, r); err != nil {
			return err
		}
	}
	// The last line is the result a driver reads.
	last, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": all})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if failed > 0 {
		return fmt.Errorf("%d operations or checks failed", failed)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// stamp says where and on what a number was measured; a number without it
// cannot be compared with anything.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
	Time       string `json:"time"`
}

func hostStamp() stamp {
	st := stamp{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: numWorkers,
		NumCPU: runtime.NumCPU(), CPUModel: "unknown", OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Time: time.Now().UTC().Format(time.RFC3339)}
	// Outside a git checkout there is no commit to name.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return st
}
