package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestFastMean(t *testing.T) {
	twenty := []float64{12, 1, 5, 3, 7, 2, 8, 4, 6, 20, 11, 19, 13, 18, 14, 17, 15, 16, 9, 10}
	for _, tc := range []struct {
		name   string
		xs     []float64
		higher bool
		want   float64
	}{
		{"lowest two of twenty", twenty, false, (1 + 2) / 2.0},
		{"highest two of twenty", twenty, true, (20 + 19) / 2.0},
		{"thirty-five values use three", seq(35), false, (1 + 2 + 3) / 3.0},
		{"nine values use one", []float64{9, 1, 5, 3, 7, 2, 8, 4, 6}, true, 9},
		{"one value", []float64{3}, false, 3},
		{"none", nil, true, 0},
	} {
		if got := fastMean(tc.xs, tc.higher); got != tc.want {
			t.Errorf("%s: fastMean = %v, want %v", tc.name, got, tc.want)
		}
	}
	if twenty[0] != 12 {
		t.Error("fastMean reordered its argument")
	}
}

// seq returns n, n-1, ..., 1.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentile(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		sorted []int64
		p      float64
		want   int64
	}{
		{ten, 0.50, 5}, // five of ten samples are at or below 5
		{ten, 0.99, 10},
		{ten, 0.90, 9},
		{ten, 0.91, 10},
		{ten, 0, 1},
		{[]int64{1, 2, 3}, 0.50, 2},
		{[]int64{7}, 0.99, 7},
		{nil, 0.50, 0},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", tc.sorted, tc.p, got, tc.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{20, 10}, [3]float64{7.5, 15, 22.5}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }
	sp := newSpans(epoch, 8)
	root := sp.beginAt(spanPriv, at(0))
	a := sp.beginAt(spanSnapshot, at(10))
	sp.endAt(a, at(30))
	b := sp.beginAt(spanWalk, at(30))
	inner := sp.beginAt(spanRetire, at(35))
	sp.endAt(inner, at(45))
	sp.endAt(b, at(50))
	sp.endAt(root, at(100))

	// Overlapping and overhanging children, which one goroutine cannot
	// record but the union must still get right: [10,30] and [20,50]
	// cover 40, and [90,120] covers only the 10 inside its parent.
	hand := []span{
		{Name: spanPriv, Parent: -1, Start: 0, End: 100},
		{Name: spanSnapshot, Parent: 0, Start: 10, End: 30},
		{Name: spanWalk, Parent: 0, Start: 20, End: 50},
		{Name: spanRetire, Parent: 2, Start: 25, End: 35},
		{Name: spanRetire, Parent: 0, Start: 90, End: 120},
	}
	for _, tc := range []struct {
		name string
		buf  []span
		want []int64
	}{
		{"recorded", sp.buf, []int64{100 - 20 - 20, 20, 20 - 10, 10}},
		{"overlap and overhang", hand, []int64{100 - 40 - 10, 20, 30 - 10, 10, 30}},
	} {
		got := selfTimes(tc.buf)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: self time of span %d = %d, want %d", tc.name, i, got[i], tc.want[i])
			}
		}
	}
	if sp.buf[inner].Parent != b || sp.buf[b].Parent != root || sp.buf[root].Parent != -1 {
		t.Errorf("parents not recorded: %+v", sp.buf)
	}

	agg := aggregateSpans(sp.buf)
	if got := agg["op.priv"]; got != (spanTotals{Count: 1, TotalNs: 100, SelfNs: 60}) {
		t.Errorf("op.priv totals = %+v", got)
	}
	snapUs, walkNs, retireUs := privSpanMetrics(agg, 5)
	if snapUs != 0.020 || walkNs != 2 || retireUs != 0.010 {
		t.Errorf("privSpanMetrics = %v, %v, %v; want 0.02 us, 10 ns / 5 nodes, 0.01 us", snapUs, walkNs, retireUs)
	}

	full := newSpans(epoch, 1)
	full.beginAt(spanRead, at(0))
	if id := full.beginAt(spanRead, at(1)); id != -1 || full.dropped != 1 {
		t.Errorf("a full recorder returned span %d and counted %d drops", id, full.dropped)
	}
	var none *spans
	none.end(none.begin(spanWalk)) // a nil recorder records nothing
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The program and BENCHMARK.json must name the same metrics and workloads,
// or a run prints numbers the driver does not expect.
func TestNamesMatchManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, slice counts are sized for %d", m.RunSeconds, refSeconds)
	}
	if len(m.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(workloadSpecs))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadSpecs[i].name || !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: manifest %q (why: %d chars), program %q", i, w.Name, len(w.Why), workloadSpecs[i].name)
		}
	}
	if len(m.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the program", len(m.EndToEnd), len(endToEndMetrics))
	}
	for i, e := range m.EndToEnd {
		if got := (metricDef{e.Name, e.Unit, e.Better, e.Bound}); got != endToEndMetrics[i] {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, got, endToEndMetrics[i])
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	layers := perLayerMetrics()
	if len(m.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the program", len(m.PerLayer), len(layers))
	}
	seen := make(map[string]bool)
	for i, p := range m.PerLayer {
		if got := (metricDef{Name: p.Name, Unit: p.Unit, Better: p.Better}); got != layers[i] {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, got, layers[i])
		}
	}
	for _, d := range append(layers, endToEndMetrics...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the manifest's naming rules", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestWorkloadSpecsAreConsistent(t *testing.T) {
	for _, s := range workloadSpecs {
		if sum := s.mix[classRead] + s.mix[classWrite] + s.mix[classPriv]; sum != 100 {
			t.Errorf("%s: mix adds up to %d", s.name, sum)
		}
		for c, every := range s.sampleEvery {
			if every < 1 || every&(every-1) != 0 {
				t.Errorf("%s: stride %d of class %s is not a power of two", s.name, every, classNames[c])
			}
		}
	}
	kv, _ := findWorkload("kv_privatize")
	if kv.mix != [numClasses]int{100 - kvPutPct - kvDeletePct - kvSnapPct, kvPutPct + kvDeletePct, kvSnapPct} {
		t.Errorf("kv_privatize mix %v does not match the preload's rates", kv.mix)
	}
	serve, _ := findWorkload("serve_mixed")
	writes := servePutPct + serveCASPct + serveDeletePct
	if serve.mix != [numClasses]int{100 - writes - serveSnapPct, writes, serveSnapPct} {
		t.Errorf("serve_mixed mix %v does not match the preload's rates", serve.mix)
	}
}

// TestSmoke runs all four workloads, both ways, and the ladder at tiny
// fixed counts: every check the full benchmark makes, in seconds.
func TestSmoke(t *testing.T) {
	ladder, err := runLadder(1, true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, spec := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			res, err := measure(runConfig{Workload: spec.name, Seed: 7, Seconds: refSeconds,
				Trace: trace, Smoke: true, Started: time.Now(), OutDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", spec.name, trace, res.Failed, res.Attempted, res.Failures)
			}
			rep := &report{Workload: spec.name, Result: res, SetupsS: []float64{res.SetupS}, Ladder: ladder}
			want := endToEndMetrics
			if trace {
				rep.perLayer()
				want = perLayerMetrics()
			} else {
				rep.endToEnd()
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", spec.name, trace, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want a finite value in %s", spec.name, trace, d.Name, m, ok, d.Unit)
				}
			}
			if trace {
				if rep.Metrics["reclaim.limbo_end"].Value != 0 {
					t.Errorf("%s: limbo not empty after the final drain", spec.name)
				}
				if rep.Metrics["stm.atomic_ro0_ns"].Value <= 0 {
					t.Errorf("%s: the ladder's rungs did not reach the report", spec.name)
				}
			}
		}
	}
}
