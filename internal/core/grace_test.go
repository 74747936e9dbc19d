package core

import "testing"

// TestGraceStrategies pins the exponential adaptation step by step: a raise
// doubles (0 becomes 1), a lower halves, and halving rounds down to 0.
func TestGraceStrategies(t *testing.T) {
	cases := []struct {
		upSteps    []uint64 // expected values after successive raises from 0
		downFrom   uint64
		downResult uint64
	}{
		{[]uint64{1, 2, 4, 8, 16}, 16, 8},
		{[]uint64{1, 2, 4}, 5, 2},
		{[]uint64{1}, 1, 0},
	}
	for _, c := range cases {
		rt := newTestRT(t, 2)
		grace := rt.Orecs.Grace(rt.Orecs.At(0))
		for i, want := range c.upSteps {
			raiseGrace(grace, DefaultMaxGrace)
			if got := grace.Load(); got != want {
				t.Errorf("raise %d: grace = %d, want %d", i, got, want)
			}
		}
		grace.Store(c.downFrom)
		lowerGrace(grace)
		if got := grace.Load(); got != c.downResult {
			t.Errorf("lower from %d: grace = %d, want %d", c.downFrom, got, c.downResult)
		}
	}
}

// TestGraceStrategyCap checks that repeated raises stop at the cap, whether
// the cap is a power of two the doubling lands on or one it would pass.
func TestGraceStrategyCap(t *testing.T) {
	for _, limit := range []uint64{64, 100} {
		rt := newTestRT(t, 2)
		grace := rt.Orecs.Grace(rt.Orecs.At(0))
		for i := 0; i < 100; i++ {
			raiseGrace(grace, limit)
		}
		if got := grace.Load(); got != limit {
			t.Errorf("grace = %d, want cap %d", got, limit)
		}
	}
}
