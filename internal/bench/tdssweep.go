package bench

import (
	"fmt"
	"io"

	stm "privstm"
)

// The semantic-structure sweep behind `stmbench -tdssweep`: the mixed
// map+queue producer/consumer workload (40/40/20 — see tdsworkload.go) run
// paired, baseline = tlib word-level structures, candidate = internal/tds
// semantic structures, on a skewed key distribution where word-level
// conflict detection melts down (hot keys share buckets and every queue op
// serializes on the size word). Pairing interleaves same-seed runs so each
// pair shares its slice of machine conditions; both sides draw identical
// key/value streams (tdsworkload.go keeps RNG consumption in the shared op
// driver). Cells carry fig ID "tds".

// RunTdsSweep measures every algorithm × thread count with RunPairedSpecs.
// It returns the tlib baselines and tds candidates; the printed median
// column is the acceptance number (per-pair median throughput delta of tds
// vs tlib), and the per-structure columns are the abort-rate A/B the
// abstract locks exist to win.
func RunTdsSweep(w io.Writer, hc HarnessConfig, algos []stm.Algorithm, pairs int) (base, cand []*Measurement, err error) {
	hc.fill()
	if len(algos) == 0 {
		// The semantic layer is only wired into the full-featured engines;
		// keep the sweep to the curves the EXPERIMENTS tables discuss.
		algos = []stm.Algorithm{stm.TL2, stm.Ord, stm.PVRStore, stm.PVRHybrid}
	}
	if pairs <= 0 {
		pairs = 3
	}
	const (
		buckets = 16
		keys    = 256
		stripes = 256
	)
	specBase := TdsMixed(buckets, keys, stripes, false)
	specCand := TdsMixed(buckets, keys, stripes, true)
	mix := WriteHeavy // 40% map RMW, 40% queue ops, 20% lookups

	fmt.Fprintf(w, "Semantic conflict detection sweep (paired tlib vs tds): %s, mix %s, zipf %.2f, %d pairs/cell\n",
		specCand.Name, mix, hc.ZipfTheta, pairs)
	fmt.Fprintf(w, "%-16s %7s %12s %12s %8s  %19s %19s %10s\n",
		"algorithm", "threads", "tlib ops/s", "tds ops/s", "median",
		"map abort% t->s", "queue abort% t->s", "semskips")

	for _, alg := range algos {
		for _, th := range hc.Threads {
			rc := hc.runConfig(alg, th, mix)
			pr, err := RunPairedSpecs(specBase, rc, specCand, rc, pairs)
			if err != nil {
				return nil, nil, err
			}
			pr.A.Fig, pr.B.Fig = "tds", "tds"
			base = append(base, pr.A)
			cand = append(cand, pr.B)
			am, bm := pr.A.Structs["map"], pr.B.Structs["map"]
			aq, bq := pr.A.Structs["queue"], pr.B.Structs["queue"]
			fmt.Fprintf(w, "%-16s %7d %12.0f %12.0f %+7.1f%%  %8.2f -> %7.2f %8.2f -> %7.2f %10d\n",
				alg, th, pr.A.Throughput, pr.B.Throughput, pr.MedianPct,
				am.AbortPct(), bm.AbortPct(), aq.AbortPct(), bq.AbortPct(),
				pr.B.Stats.SemanticSkips)
		}
	}
	fmt.Fprintln(w)
	return base, cand, nil
}

// CheckTdsAcceptance enforces the sweep's acceptance criterion against two
// WriteJSON documents (candidate = tds, baseline = tlib): at the given
// thread count, on every listed algorithm's skewed cell, the tds map abort
// rate must be strictly lower than tlib's and aggregate throughput at least
// minGain (e.g. 1.15 for +15%). Returns a descriptive error when a cell
// fails or is missing.
func CheckTdsAcceptance(candPath, basePath string, threads int, minGain float64, algos []string) error {
	_, candCells, err := ReadJSON(candPath)
	if err != nil {
		return err
	}
	_, baseCells, err := ReadJSON(basePath)
	if err != nil {
		return err
	}
	find := func(cells []jsonMeasurement, alg string) *jsonMeasurement {
		for i := range cells {
			c := &cells[i]
			if c.Fig == "tds" && c.Algorithm == alg && c.Threads == threads && c.ZipfTheta > 0 {
				return c
			}
		}
		return nil
	}
	if len(algos) == 0 {
		// The acceptance cell is the paper's in-place privatization-safe
		// engine: its logged bucket walks genuinely validate under churn, so
		// the weak-read + abstract-lock win is structural rather than
		// scheduler weather. (The redo engines on a 1-CPU host barely
		// validate read sets at all, leaving nothing for semantics to win.)
		algos = []string{"pvrStore"}
	}
	for _, alg := range algos {
		cand := find(candCells, alg)
		base := find(baseCells, alg)
		if cand == nil || base == nil {
			return fmt.Errorf("tds acceptance: no skewed %s/%d-thread cell in %s and %s",
				alg, threads, candPath, basePath)
		}
		cm, bm := cand.Structs["map"], base.Structs["map"]
		if cm.Ops == 0 || bm.Ops == 0 {
			return fmt.Errorf("tds acceptance: %s/%d missing per-structure stats", alg, threads)
		}
		if !(cm.AbortPct < bm.AbortPct) {
			return fmt.Errorf("tds acceptance: %s/%d map abort rate not improved: tds %.2f%% vs tlib %.2f%%",
				alg, threads, cm.AbortPct, bm.AbortPct)
		}
		if base.Throughput <= 0 || cand.Throughput < minGain*base.Throughput {
			return fmt.Errorf("tds acceptance: %s/%d throughput %.0f < %.2fx tlib %.0f",
				alg, threads, cand.Throughput, minGain, base.Throughput)
		}
	}
	return nil
}
