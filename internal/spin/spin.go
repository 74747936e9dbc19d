// Package spin provides spin-wait utilities tuned for hosts with few
// hardware threads.
//
// The paper's experiments ran on a 32-way Niagara where pure spinning is
// cheap. Under the Go runtime on small machines, a goroutine that spins
// without yielding can starve the very transaction it is waiting for, so
// every wait loop in this repository uses Backoff: brief busy spinning,
// then cooperative yielding, then exponentially growing sleeps.
//
// The sleep schedule (1µs doubling to 1024µs) is a request, not a cost:
// time.Sleep returns no earlier than asked, and the host's timer decides how
// much later. On the 2-CPU Xeon EXPERIMENTS.md records, every request from
// 64µs up took 1.06–1.11 ms and the 1µs first step 0.01–0.65 ms, so a wait
// that reaches the sleep phase (attempt 24, after about 2µs of spinning and
// yielding there) pays up to a millisecond per step whatever it requested.
// BenchmarkBackoffSleepStep measures the floor on the host at hand.
package spin

import (
	"runtime"
	"time"
)

// Backoff implements truncated exponential backoff with yielding.
// The zero value is ready to use.
type Backoff struct {
	attempts int

	// sleepCap bounds individual sleep-phase requests: 0 is the default
	// 1024µs cap, a positive value lowers it (SetSleepCap — fence watchdogs
	// lower it once a stall is detected, to poll as often as the host timer
	// allows).
	sleepCap time.Duration
}

const (
	busySpins  = 8    // iterations of pure spinning before yielding
	yieldSpins = 16   // iterations of Gosched before sleeping
	maxSleepUS = 1024 // cap for a sleep-phase request, microseconds
)

// Wait performs one backoff step. Callers invoke it once per failed
// attempt of the guarded condition.
func (b *Backoff) Wait() {
	switch {
	case b.attempts < busySpins:
		// Busy loop proportional to attempt count. The loop body is
		// deliberately trivial; its only purpose is to burn a few cycles
		// without a syscall.
		for i := 0; i < 1<<uint(b.attempts); i++ {
			spinHint()
		}
	case b.attempts < busySpins+yieldSpins:
		runtime.Gosched()
	default:
		time.Sleep(b.sleep())
	}
	b.attempts++
}

// sleep computes the next sleep-phase request, honouring the cap. The
// request is a lower bound on the step's cost, not its duration (see the
// package comment).
func (b *Backoff) sleep() time.Duration {
	exp := b.attempts - busySpins - yieldSpins
	us := 1 << uint(min(exp, 10))
	if us > maxSleepUS {
		us = maxSleepUS
	}
	d := time.Duration(us) * time.Microsecond
	if b.sleepCap > 0 && d > b.sleepCap {
		d = b.sleepCap
	}
	return d
}

// SetSleepCap bounds individual sleep-phase requests to d; a non-positive d
// restores the default 1024µs cap, as ResetSleepCap does. Reset does not
// clear the cap.
func (b *Backoff) SetSleepCap(d time.Duration) { b.sleepCap = d }

// ResetSleepCap restores the default sleep schedule (the 1024µs cap),
// undoing any earlier SetSleepCap.
func (b *Backoff) ResetSleepCap() { b.sleepCap = 0 }

// Reset clears the backoff so the next Wait starts from the cheap phase.
func (b *Backoff) Reset() { b.attempts = 0 }

// Attempts reports how many times Wait has been called since the last
// Reset. Tests use it to verify phase progression.
func (b *Backoff) Attempts() int { return b.attempts }

//go:noinline
func spinHint() {}

// Until spins with backoff until cond returns true. It is a convenience
// for wait loops with no early-exit needs.
func Until(cond func() bool) {
	var b Backoff
	for !cond() {
		b.Wait()
	}
}
