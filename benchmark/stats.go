package main

import (
	"math"
	"slices"
)

// fastShare is the share of a run's slices the estimator keeps: the best
// tenth.
const fastShare = 10

// fastMean is the estimator every time-valued metric uses: the mean of the
// best tenth of the slices (highest when higherBetter, else lowest), at
// least one. Interference from a neighbour on a shared host only ever
// slows a slice, so the fast end of the distribution repeats between runs
// where the median does not; measured at the commit that added the
// benchmark, on a host whose neighbours were busy, the median of 80 slices
// spread 22 % over six runs, the mean of the best third 16 %, of the best
// tenth 11 %.
func fastMean(xs []float64, higherBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if higherBetter {
		slices.Reverse(s)
	}
	n := max(len(s)/fastShare, 1)
	sum := 0.0
	for _, x := range s[:n] {
		sum += x
	}
	return sum / float64(n)
}

// percentile returns the exact nearest-rank order statistic of sorted:
// the smallest sample with at least p of the samples at or below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so the spreads -aa prints are the ones the
// acceptance check computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if len(xs) == 1 {
		return xs[0]
	}
	_, q2, _ := quartiles(xs)
	return q2
}
