package spin

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBackoffPhases(t *testing.T) {
	var b Backoff
	if b.Attempts() != 0 {
		t.Fatal("zero value should start at 0 attempts")
	}
	start := time.Now()
	for i := 0; i < busySpins+yieldSpins; i++ {
		b.Wait()
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("busy+yield phases took %v", d)
	}
	if b.Attempts() != busySpins+yieldSpins {
		t.Errorf("Attempts = %d", b.Attempts())
	}
	// The sleep phase must actually sleep.
	start = time.Now()
	b.Wait()
	if d := time.Since(start); d < time.Microsecond {
		t.Logf("sleep phase returned in %v (scheduler-dependent)", d)
	}
	b.Reset()
	if b.Attempts() != 0 {
		t.Error("Reset did not clear attempts")
	}
}

func TestSleepCapClampsSleepPhase(t *testing.T) {
	var b Backoff
	b.attempts = busySpins + yieldSpins + 20 // deep into the sleep phase
	if d := b.sleep(); d != maxSleepUS*time.Microsecond {
		t.Fatalf("uncapped deep sleep = %v, want %v", d, maxSleepUS*time.Microsecond)
	}
	b.SetSleepCap(64 * time.Microsecond)
	if d := b.sleep(); d != 64*time.Microsecond {
		t.Fatalf("capped sleep = %v, want 64µs", d)
	}
	// The cap bounds, it does not inflate: early sleep-phase waits shorter
	// than the cap are unaffected.
	b.Reset()
	b.attempts = busySpins + yieldSpins // first sleep step: 1µs
	if d := b.sleep(); d != time.Microsecond {
		t.Fatalf("first capped sleep = %v, want 1µs", d)
	}
	// Reset must not clear the cap (the watchdog relies on this).
	if b.sleepCap != 64*time.Microsecond {
		t.Fatal("Reset cleared the sleep cap")
	}
	b.SetSleepCap(0)
	b.attempts += 20
	if d := b.sleep(); d != maxSleepUS*time.Microsecond {
		t.Fatalf("after clearing cap, sleep = %v, want default max", d)
	}
}

func TestResetSleepCapRestoresDefault(t *testing.T) {
	var b Backoff
	b.SetSleepCap(64 * time.Microsecond)
	b.ResetSleepCap()
	b.attempts = busySpins + yieldSpins + 20
	if d := b.sleep(); d != maxSleepUS*time.Microsecond {
		t.Fatalf("after ResetSleepCap, sleep = %v, want default max", d)
	}
	// A non-positive SetSleepCap argument means "default schedule".
	for _, d := range []time.Duration{0, -time.Microsecond} {
		b.SetSleepCap(64 * time.Microsecond)
		b.SetSleepCap(d)
		if got := b.sleep(); got != maxSleepUS*time.Microsecond {
			t.Fatalf("after SetSleepCap(%v), sleep = %v, want default max", d, got)
		}
	}
}

func TestUntil(t *testing.T) {
	var flag atomic.Bool
	go func() {
		time.Sleep(5 * time.Millisecond)
		flag.Store(true)
	}()
	Until(flag.Load)
	if !flag.Load() {
		t.Fatal("Until returned before the condition held")
	}
}

func TestMutexExclusion(t *testing.T) {
	var m Mutex
	var inside, total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				m.Lock()
				if inside.Add(1) != 1 {
					t.Error("mutual exclusion violated")
				}
				total.Add(1)
				inside.Add(-1)
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if total.Load() != 16000 {
		t.Errorf("total = %d", total.Load())
	}
}

func TestMutexTryLock(t *testing.T) {
	var m Mutex
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	m.Unlock()
	if !m.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	m.Unlock()
}

func TestUnlockOfUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Unlock of unlocked mutex did not panic")
		}
	}()
	var m Mutex
	m.Unlock()
}

// BenchmarkBackoffSleepStep reports the wall time of one sleep-phase step
// (ns/op) next to the duration the schedule requests for it: the first
// step (attempt 24, 1µs), a step capped at the fence watchdog's 64µs stall
// cap, and a step at the default 1024µs cap. The request is only a lower
// bound; the host's timer sets the floor (EXPERIMENTS.md records it).
//
//	go test -run '^$' -bench BackoffSleepStep -benchtime 200x ./internal/spin
func BenchmarkBackoffSleepStep(b *testing.B) {
	for _, tc := range []struct {
		name string
		skip int           // attempts already made when the step runs
		cap  time.Duration // SetSleepCap argument (0 = default cap)
	}{
		{"first", busySpins + yieldSpins, 0},
		{"capped64us", busySpins + yieldSpins + 10, 64 * time.Microsecond},
		{"default1024us", busySpins + yieldSpins + 10, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var bo Backoff
			bo.SetSleepCap(tc.cap)
			bo.attempts = tc.skip
			requested := bo.sleep()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bo.attempts = tc.skip
				bo.Wait()
			}
			b.ReportMetric(float64(requested)/float64(time.Microsecond), "requested-µs")
		})
	}
}
