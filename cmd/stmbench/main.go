// Command stmbench regenerates the paper's evaluation figures: every panel
// of Figure 3 (throughput vs. thread count for eight STM systems) and
// Figure 4 (privatization-fence and visible-read statistics for pvrBase vs.
// pvrCAS), plus the single-thread overhead comparison quoted in §V's text.
// With -remote it instead loads a running stmd over the wire protocol.
//
// Examples:
//
//	stmbench -fig 3a                 # one panel at CI scale
//	stmbench -fig all -scale 1       # the full evaluation at paper scale
//	stmbench -fig 3e,3g,t1 -json out.json
//	stmbench -fig 3c -threads 1,2,4,8,16,32 -txns 100000
//	stmbench -remote :7077 -conns 1000 -dur 5s # drive a running stmd
//	stmbench -list                   # show the experiment index
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	stm "privstm"
	"privstm/internal/bench"
)

func main() {
	var (
		figID    = flag.String("fig", "", "comma-separated figures to regenerate (3a..3h, 4a/4c/4e/4g, t1, or 'all')")
		threads  = flag.String("threads", "1,2,4,8,16,32", "comma-separated thread sweep")
		txns     = flag.Int("txns", 0, "transactions per thread (0 = duration mode; paper used 100000)")
		dur      = flag.Duration("dur", 300*time.Millisecond, "per-cell duration in duration mode")
		scale    = flag.Int("scale", 8, "structure-size divisor (1 = paper scale)")
		reps     = flag.Int("reps", 1, "runs averaged per cell (paper used 3)")
		seed     = flag.Uint64("seed", 0, "workload RNG seed (0 = default)")
		list     = flag.Bool("list", false, "list the experiment index and exit")
		csvPath  = flag.String("csv", "", "also write raw measurements to this CSV file")
		jsonPath = flag.String("json", "", "also write raw measurements to this JSON file")
		algos    = flag.String("algos", "", "comma-separated curve filter (figure labels, e.g. TL2,pvrStore)")
		mix      = flag.String("mix", "", "override op mix as insert/delete/lookup (e.g. 20/20/60)")
		zipf     = flag.Float64("zipf", 0, "key-distribution skew for every cell: 0 = uniform, (0,1) = YCSB Zipf theta")
		maxAtt   = flag.Int("maxattempts", 0, "abort budget before serialized-irrevocable escalation (0 = default, negative disables)")
		remote   = flag.String("remote", "", "drive a running stmd at this address instead of the in-process harness")
		conns    = flag.Int("conns", 200, "with -remote: concurrent client connections")
		keys     = flag.Int("keys", 1<<16, "with -remote: key-space size")
		batch    = flag.Int("batch", 4, "with -remote: keys per multi-key request")
		rmix     = flag.String("remotemix", "", "with -remote: get/put/cas/delete/privatize mix (e.g. 70/20/5/4/1)")
		tenants  = flag.String("tenants", "", "with -remote: weighted tenant list name:weight[,name:weight...]")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		mutexPrf = flag.String("mutexprofile", "", "write a mutex-contention profile to this file at exit")
	)
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := crossValidate(explicit, flagValues{remote: *remote, fig: *figID, list: *list, args: flag.Args()}); err != nil {
		fmt.Fprintf(os.Stderr, "stmbench: %v\nstmbench: run with -h for flag usage\n", err)
		os.Exit(2)
	}

	if *list {
		fmt.Println("Experiment index (paper figure -> harness id):")
		for _, f := range bench.Figures {
			fmt.Printf("  %-3s  %-12s  %s\n", f.ID, f.Kind, f.Title)
		}
		return
	}
	if *figID == "" && *remote == "" {
		fmt.Fprintln(os.Stderr, "stmbench: -fig is required (try -list or -remote)")
		os.Exit(2)
	}
	if *zipf < 0 || *zipf >= 1 {
		fmt.Fprintf(os.Stderr, "stmbench: bad -zipf %v (want 0 for uniform or theta in (0,1))\n", *zipf)
		os.Exit(2)
	}

	if *remote != "" {
		runRemote(*remote, *conns, *keys, *batch, *dur, *zipf, *seed, *rmix, *tenants, *jsonPath)
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *mutexPrf != "" {
		// Sample every contention event; the spin-heavy STM paths make the
		// default sampling rate miss the interesting short waits.
		runtime.SetMutexProfileFraction(1)
		defer func() {
			f, err := os.Create(*mutexPrf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "stmbench:", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "stmbench:", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "stmbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush the final allocation state
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "stmbench:", err)
			}
		}()
	}

	ths, err := bench.ParseThreads(*threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(2)
	}
	hc := bench.HarnessConfig{
		Threads:       ths,
		TxnsPerThread: *txns,
		Duration:      *dur,
		Scale:         *scale,
		Reps:          *reps,
		Seed:          *seed,
		MaxAttempts:   *maxAtt,
		ZipfTheta:     *zipf,
	}

	fmt.Printf("# GOMAXPROCS=%d NumCPU=%d scale=1/%d maxattempts=%d zipf=%.2f\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *scale, *maxAtt, *zipf)
	if runtime.NumCPU() < 8 {
		fmt.Printf("# note: %d CPUs — thread counts beyond that timeshare; expect curves to flatten there\n", runtime.NumCPU())
	}
	fmt.Println()

	var curveFilter []stm.Algorithm
	if *algos != "" {
		for _, name := range strings.Split(*algos, ",") {
			a, err := stm.ParseAlgorithm(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "stmbench:", err)
				os.Exit(2)
			}
			curveFilter = append(curveFilter, a)
		}
	}

	var mixOverride *bench.Mix
	if *mix != "" {
		var ins, del, look int
		if _, err := fmt.Sscanf(*mix, "%d/%d/%d", &ins, &del, &look); err != nil ||
			ins < 0 || del < 0 || look < 0 || ins+del+look != 100 {
			fmt.Fprintf(os.Stderr, "stmbench: bad -mix %q (want e.g. 20/20/60 summing to 100)\n", *mix)
			os.Exit(2)
		}
		mixOverride = &bench.Mix{InsertPct: ins, DeletePct: del}
	}

	var figs []bench.Figure
	if *figID == "all" {
		figs = bench.Figures
	} else {
		for _, id := range strings.Split(*figID, ",") {
			f, err := bench.FigureByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "stmbench:", err)
				os.Exit(2)
			}
			figs = append(figs, f)
		}
	}
	var allMs []*bench.Measurement
	for _, f := range figs {
		if curveFilter != nil && f.Kind != "overhead" {
			f.Algorithms = curveFilter
		}
		if mixOverride != nil && f.Kind == "throughput" {
			f.Mix = *mixOverride
			f.Title += fmt.Sprintf(" [mix %s]", f.Mix)
		}
		ms, err := bench.RunFigure(os.Stdout, f, hc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmbench: figure %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		allMs = append(allMs, ms...)
	}
	if *csvPath != "" {
		out, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(1)
		}
		bench.SortMeasurements(allMs)
		bench.WriteCSV(out, allMs)
		if err := out.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(1)
		}
		fmt.Printf("# wrote %d measurements to %s\n", len(allMs), *csvPath)
	}
	if *jsonPath != "" {
		bench.SortMeasurements(allMs)
		label := fmt.Sprintf("scale=1/%d maxattempts=%d", *scale, *maxAtt)
		writeJSONTo(*jsonPath, label, allMs)
	}
}

// runRemote dispatches the -remote macro-benchmark against a running stmd
// and exits the mode (writing the cell to -json when asked).
func runRemote(addr string, conns, keys, batch int, dur time.Duration,
	zipf float64, seed uint64, mixSpec, tenantSpec, jsonPath string) {
	mixv := bench.DefaultRemoteMix
	if mixSpec != "" {
		var g, p, c, d, pr int
		if _, err := fmt.Sscanf(mixSpec, "%d/%d/%d/%d/%d", &g, &p, &c, &d, &pr); err != nil ||
			g < 0 || p < 0 || c < 0 || d < 0 || pr < 0 || g+p+c+d+pr != 100 {
			fmt.Fprintf(os.Stderr, "stmbench: bad -remotemix %q (want get/put/cas/delete/privatize summing to 100, e.g. 70/20/5/4/1)\n", mixSpec)
			os.Exit(2)
		}
		mixv = bench.RemoteMix{GetPct: g, PutPct: p, CASPct: c, DeletePct: d, PrivatizePct: pr}
	}
	var rts []bench.RemoteTenant
	if tenantSpec != "" {
		for _, part := range strings.Split(tenantSpec, ",") {
			name, wstr, hasWeight := strings.Cut(part, ":")
			if name == "" {
				fmt.Fprintf(os.Stderr, "stmbench: bad -tenants entry %q (want name or name:weight)\n", part)
				os.Exit(2)
			}
			w := 1
			if hasWeight {
				n, err := strconv.Atoi(wstr)
				if err != nil || n <= 0 {
					fmt.Fprintf(os.Stderr, "stmbench: bad -tenants weight in %q (want a positive integer)\n", part)
					os.Exit(2)
				}
				w = n
			}
			rts = append(rts, bench.RemoteTenant{Name: name, Weight: w})
		}
	}
	rc := bench.RemoteConfig{
		Addr:     addr,
		Conns:    conns,
		Duration: dur,
		Keys:     keys,
		Batch:    batch,
		Zipf:     zipf,
		Seed:     seed,
		Mix:      mixv,
		Tenants:  rts,
	}
	m, err := bench.RunRemote(os.Stdout, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	if jsonPath != "" {
		label := fmt.Sprintf("remote=%s conns=%d keys=%d batch=%d zipf=%.2f",
			addr, rc.Conns, rc.Keys, rc.Batch, zipf)
		writeJSONTo(jsonPath, label, []*bench.Measurement{m})
	}
}

// writeJSONTo writes measurements to path, exiting on error.
func writeJSONTo(path, label string, ms []*bench.Measurement) {
	out, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	werr := bench.WriteJSON(out, label, ms)
	if cerr := out.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", werr)
		os.Exit(1)
	}
	fmt.Printf("# wrote %d measurements to %s\n", len(ms), path)
}
