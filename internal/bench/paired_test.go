package bench

import (
	"testing"

	stm "privstm"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 9}, 5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 9, 2}, 3},
		{[]float64{-10, 2, 3}, 2}, // one bad pair must not drag the median
	}
	for _, tc := range cases {
		if got := Median(tc.xs); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
		// Median must not reorder the caller's slice.
		if len(tc.xs) > 1 && tc.xs[0] == tc.want && tc.xs[0] < tc.xs[1] {
			t.Errorf("Median mutated its argument: %v", tc.xs)
		}
	}
}

func TestRunPairedInterleaves(t *testing.T) {
	spec := Hashtable(8, 16)
	a := RunConfig{Algorithm: stm.Ord, Threads: 2, Mix: WriteHeavy,
		TxnsPerThread: 200}
	b := a
	b.Tracker = stm.TrackerList
	const pairs = 3
	pr, err := RunPaired(spec, a, b, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Deltas) != pairs {
		t.Fatalf("got %d deltas, want %d", len(pr.Deltas), pairs)
	}
	if len(pr.A.RepThroughputs) != pairs || len(pr.B.RepThroughputs) != pairs {
		t.Fatalf("aggregates hold %d/%d reps, want %d each",
			len(pr.A.RepThroughputs), len(pr.B.RepThroughputs), pairs)
	}
	if pr.MedianPct != Median(pr.Deltas) {
		t.Errorf("MedianPct = %v, want Median(Deltas) = %v", pr.MedianPct, Median(pr.Deltas))
	}
	// Both sides ran the full workload.
	wantOps := uint64(2 * 200 * pairs)
	if pr.A.Ops != wantOps || pr.B.Ops != wantOps {
		t.Errorf("ops = %d/%d, want %d", pr.A.Ops, pr.B.Ops, wantOps)
	}
	// Every writer commit ticks the clock once, on both sides.
	if pr.A.Stats.ClockTicks == 0 || pr.B.Stats.ClockTicks == 0 {
		t.Errorf("ClockTicks = %d/%d, want > 0 on both sides", pr.A.Stats.ClockTicks, pr.B.Stats.ClockTicks)
	}
}
