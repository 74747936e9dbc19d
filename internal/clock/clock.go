// Package clock implements the globally synchronized version clock that
// every STM engine in this repository relies on for consistency checks
// (paper §II-A).
//
// The paper uses a 32-bit clock and ignores overflow; we use 64 bits so that
// wrap-around can never occur in practice, which keeps correctness arguments
// free of modular-arithmetic caveats.
package clock

import "sync/atomic"

// Clock is a monotonically increasing global timestamp source. The zero
// value is a clock at time 0, ready to use.
//
// All methods are safe for concurrent use.
type Clock struct {
	// now is padded on both sides so the hot counter never shares a cache
	// line with neighbouring data.
	_   [7]uint64
	now atomic.Uint64
	_   [7]uint64
}

// Now returns the current global time.
func (c *Clock) Now() uint64 { return c.now.Load() }

// Tick atomically advances the clock by one step and returns the *new*
// time. A committing writer uses the returned value as its write timestamp
// (wts): no other transaction can share it.
func (c *Clock) Tick() uint64 { return c.now.Add(1) }

// AdvanceTo raises the clock to at least t; tests use it to place the clock
// at a chosen time. The clock never moves backwards.
func (c *Clock) AdvanceTo(t uint64) {
	for {
		cur := c.now.Load()
		if cur >= t || c.now.CompareAndSwap(cur, t) {
			return
		}
	}
}
