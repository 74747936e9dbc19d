package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"
)

func TestZipfRangeAndDeterminism(t *testing.T) {
	a := NewZipf(New(9), 1000, 0.8)
	b := NewZipf(New(9), 1000, 0.8)
	for i := 0; i < 10000; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatalf("streams diverged at %d: %d vs %d", i, va, vb)
		}
		if va >= 1000 {
			t.Fatalf("draw %d out of range", va)
		}
	}
}

// TestZipfSkew checks the defining property against the exact CDF: the mass
// on the hottest ranks grows with theta and tracks the analytic value.
func TestZipfSkew(t *testing.T) {
	const n, draws = 1000, 200000
	for _, theta := range []float64{0.2, 0.5, 0.8, 0.99} {
		z := NewZipf(New(1), n, theta)
		top := 0 // draws landing in the hottest 10 ranks
		for i := 0; i < draws; i++ {
			if z.Next() < 10 {
				top++
			}
		}
		want := zeta(10, theta) / zeta(n, theta)
		got := float64(top) / draws
		if math.Abs(got-want) > 0.02 {
			t.Errorf("theta %.2f: top-10 mass %.4f, analytic %.4f", theta, got, want)
		}
		if theta >= 0.8 && got < 0.2 {
			t.Errorf("theta %.2f: expected heavy skew, top-10 mass only %.4f", theta, got)
		}
	}
}

func TestZipfHottestFirst(t *testing.T) {
	z := NewZipf(New(3), 100, 0.9)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if !(counts[0] > counts[1] && counts[1] > counts[5] && counts[5] > counts[50]) {
		t.Errorf("rank frequencies not decreasing: c0=%d c1=%d c5=%d c50=%d",
			counts[0], counts[1], counts[5], counts[50])
	}
}

func TestZipfPanics(t *testing.T) {
	for _, bad := range []float64{1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("theta %v accepted", bad)
				}
			}()
			NewZipf(New(1), 10, bad)
		}()
	}
}

// TestZipfThetaZeroUniform: theta == 0 is the documented uniform limit —
// it must not panic, must draw bit-identically to RNG.Intn on the same
// stream (paired A/B key sequences from before the fix are preserved), and
// must cover the range roughly evenly.
func TestZipfThetaZeroUniform(t *testing.T) {
	const n, draws = 64, 100000
	z := NewZipf(New(7), n, 0)
	ref := New(7)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := z.Next()
		if want := uint64(ref.Intn(n)); v != want {
			t.Fatalf("draw %d: theta-0 Next() = %d, RNG.Intn = %d (streams must match)", i, v, want)
		}
		counts[v]++
	}
	// Uniformity: every rank within ±25% of the expected draws/n.
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > want/4 {
			t.Errorf("rank %d drawn %d times, expected ~%.0f", k, c, want)
		}
	}
	if z.Theta() != 0 {
		t.Errorf("Theta() = %v, want 0", z.Theta())
	}
}

// TestZipfGolden pins the key stream: the first 10,000 draws of
// Zipf(1<<14, 0.8) from seed 1, as a 64-bit FNV-1a over their
// little-endian bytes plus the first sixteen draws in the clear. Workload
// key streams depend on it, so a change to Next must reproduce it.
func TestZipfGolden(t *testing.T) {
	z := NewZipf(New(1), 1<<14, 0.8)
	h := fnv.New64a()
	var first []uint64
	var b [8]byte
	for i := 0; i < 10000; i++ {
		k := z.Next()
		if i < 16 {
			first = append(first, k)
		}
		binary.LittleEndian.PutUint64(b[:], k)
		h.Write(b[:])
	}
	want := []uint64{4613, 14396, 568, 568, 5079, 9251, 1075, 114, 6021, 397, 1937, 622, 1133, 528, 21, 2519}
	if !slices.Equal(first, want) {
		t.Errorf("first draws = %v, want %v", first, want)
	}
	if got := h.Sum64(); got != 0x2a3909d43868fddd {
		t.Errorf("FNV-1a of 10,000 draws = %#x, want 0x2a3909d43868fddd", got)
	}
}
