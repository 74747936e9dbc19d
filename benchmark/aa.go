package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// A/A calibration: the same binary measured as if it were two versions.
// Set A and set B alternate, run for run, each pair on the same seed, so
// whatever separates their medians is noise. A bound is usable only if it
// is comfortably wider than that.

// aaCell is one metric on one workload.
type aaCell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	A        []float64 `json:"a"`
	B        []float64 `json:"b"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	// DiffPct is how much worse B's median is than A's, in percent of A's,
	// signed so that positive is worse.
	DiffPct float64 `json:"diff_pct"`
	// SpreadA/B/All are interquartile distances as a percentage of the
	// median: of each set, and of all runs pooled (the acceptance check's
	// ten values).
	SpreadAPct   float64 `json:"spread_a_pct"`
	SpreadBPct   float64 `json:"spread_b_pct"`
	SpreadAllPct float64 `json:"spread_all_pct"`
	// OK: the medians differ by no more than half the bound and each
	// set's spread is within the bound (set-up time's spread is exempt:
	// its medians are what is compared).
	OK bool `json:"ok"`
}

type aaReport struct {
	Stamp   stamp    `json:"stamp"`
	Runs    int      `json:"runs_per_set"`
	Seeds   []uint64 `json:"seeds"`
	Seconds float64  `json:"seconds"`
	Cells   []aaCell `json:"cells"`
	AllOK   bool     `json:"all_ok"`
	Claim   *string  `json:"claim"`
}

func runAA(o options, names []string) error {
	n, base := o.aa, o.seed
	if o.trace {
		return fmt.Errorf("-aa calibrates the end-to-end metrics; it does not take -trace")
	}
	rep := aaReport{Stamp: hostStamp(), Runs: n, Seconds: o.seconds, AllOK: true}
	values := make(map[[2]string]*[2][]float64) // (workload, metric) → per set
	for i := 0; i < n; i++ {
		o.seed = base + uint64(i)
		rep.Seeds = append(rep.Seeds, o.seed)
		for set := 0; set < 2; set++ {
			fmt.Fprintf(os.Stderr, "aa: run %d/%d of set %c, seed %d\n", i+1, n, 'A'+set, o.seed)
			reports, err := runWorkloads(o, names)
			if err != nil {
				return err
			}
			for _, r := range reports {
				if r.Result.Failed > 0 {
					return fmt.Errorf("%s: %d operations or checks failed: %v", r.Workload, r.Result.Failed, r.Result.Failures)
				}
				for name, m := range r.Metrics {
					key := [2]string{r.Workload, name}
					if values[key] == nil {
						values[key] = new([2][]float64)
					}
					values[key][set] = append(values[key][set], m.Value)
				}
			}
		}
	}
	for _, w := range names {
		for _, d := range endToEndMetrics {
			v := values[[2]string{w, d.Name}]
			c := aaCell{Workload: w, Metric: d.Name, Unit: d.Unit, Bound: d.Bound, A: v[0], B: v[1],
				MedianA: median(v[0]), MedianB: median(v[1]),
				SpreadAPct: 100 * spread(v[0]), SpreadBPct: 100 * spread(v[1]),
				SpreadAllPct: 100 * spread(slices.Concat(v[0], v[1]))}
			c.DiffPct = 100 * (c.MedianB - c.MedianA) / c.MedianA
			if d.Better == "higher" {
				c.DiffPct = -c.DiffPct
			}
			limit := 100 * c.Bound
			c.OK = math.Abs(c.DiffPct) <= limit/2 &&
				(d.Name == "setup_s" || (c.SpreadAPct <= limit && c.SpreadBPct <= limit))
			rep.AllOK = rep.AllOK && c.OK
			rep.Cells = append(rep.Cells, c)
			fmt.Fprintf(os.Stderr, "%-13s %-14s A %12.5g  B %12.5g  diff %+6.2f%%  spread A %5.2f%% B %5.2f%% all %5.2f%%  bound %4.1f%%  ok=%v\n",
				w, d.Name, c.MedianA, c.MedianB, c.DiffPct, c.SpreadAPct, c.SpreadBPct, c.SpreadAllPct, limit, c.OK)
		}
	}
	out, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !rep.AllOK {
		return fmt.Errorf("two sets of runs of the same code disagree by more than the bounds allow")
	}
	return nil
}
