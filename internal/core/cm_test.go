package core

import (
	"testing"
	"time"

	"privstm/internal/failpoint"
)

func TestAttemptLimit(t *testing.T) {
	cases := []struct {
		max  int
		want int
	}{
		{0, DefaultMaxAttempts},
		{5, 5},
		{1, 1},
		{-1, 0}, // escalation disabled
	}
	for _, c := range cases {
		rt := &Runtime{MaxAttempts: c.max}
		if got := rt.attemptLimit(); got != c.want {
			t.Errorf("attemptLimit(max=%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

// newTestRTOpts is newTestRT with extra options merged in.
func newTestRTOpts(t *testing.T, opts Options) *Runtime {
	t.Helper()
	if opts.HeapWords == 0 {
		opts.HeapWords = 1 << 12
	}
	if opts.OrecCount == 0 {
		opts.OrecCount = 1 << 8
	}
	if opts.MaxThreads == 0 {
		opts.MaxThreads = 4
	}
	rt, err := NewRuntime(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// countCMWaits arms failpoint.CMWait, the site Run evaluates just before
// each contention-management wait, and returns its hit counter.
func countCMWaits(t *testing.T) func() uint64 {
	failpoint.Set(failpoint.CMWait, nil)
	t.Cleanup(failpoint.Reset)
	return func() uint64 { return failpoint.Hits(failpoint.CMWait) }
}

func TestRunSkipsWaitBeforeEscalation(t *testing.T) {
	rt := newTestRTOpts(t, Options{MaxAttempts: 3})
	e := &fakeEngine{rt: rt, commitOK: true}
	th, _ := rt.NewThread()
	waits := countCMWaits(t)
	attempt := 0
	if err := Run(e, th, func() {
		attempt++
		if attempt <= 3 {
			th.ConflictAbort()
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Three aborts, then escalation: CM waits only between non-final
	// attempts (after aborts 1 and 2, not after abort 3), and the
	// serialized attempt commits.
	if n := waits(); n != 2 {
		t.Errorf("CM waited %d times, want 2 (skipped before escalation)", n)
	}
	if th.Stats.Serialized != 1 {
		t.Errorf("Serialized = %d, want 1", th.Stats.Serialized)
	}
	if th.Stats.Commits != 1 || th.Stats.Aborts != 3 {
		t.Errorf("commits=%d aborts=%d, want 1/3", th.Stats.Commits, th.Stats.Aborts)
	}
	if rt.serialTok.holder.Load() != 0 {
		t.Error("serialized token not released after commit")
	}
}

func TestRunResetsCMAfterCommit(t *testing.T) {
	rt := newTestRT(t, 2)
	e := &fakeEngine{rt: rt, commitOK: true}
	th, _ := rt.NewThread()
	waits := countCMWaits(t)
	attempt := 0
	if err := Run(e, th, func() {
		attempt++
		if attempt == 1 {
			th.ConflictAbort()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n := waits(); n != 1 {
		t.Errorf("CM waited %d times, want 1", n)
	}
	if n := th.cm.Attempts(); n != 0 {
		t.Errorf("backoff left at attempt %d after commit, want 0 (reset)", n)
	}
}

// TestMaxAttempts1SerializesImmediately pins the one-attempt budget: the
// first abort escalates straight to the serialized fallback, with no
// contention-management wait before it.
func TestMaxAttempts1SerializesImmediately(t *testing.T) {
	rt := newTestRTOpts(t, Options{MaxAttempts: 1})
	e := &fakeEngine{rt: rt, commitOK: true}
	th, _ := rt.NewThread()
	waits := countCMWaits(t)
	attempt := 0
	if err := Run(e, th, func() {
		attempt++
		if attempt == 1 {
			th.ConflictAbort()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n := waits(); n != 0 {
		t.Errorf("MaxAttempts 1 waited %d times, want 0", n)
	}
	if th.Stats.Serialized != 1 || th.Stats.Aborts != 1 {
		t.Errorf("serialized=%d aborts=%d, want 1/1", th.Stats.Serialized, th.Stats.Aborts)
	}
}

func TestGateSerializedBlocksWhileTokenHeld(t *testing.T) {
	rt := newTestRT(t, 2)
	holder, _ := rt.NewThread()
	other, _ := rt.NewThread()

	rt.serialTok.acquire(holder)
	passed := make(chan struct{})
	go func() {
		other.gateSerialized()
		close(passed)
	}()
	select {
	case <-passed:
		t.Fatal("gateSerialized passed while the token was held")
	case <-time.After(10 * time.Millisecond):
	}
	// The holder itself is never blocked by its own token.
	done := make(chan struct{})
	go func() {
		holder.gateSerialized()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("token holder blocked on its own gate")
	}
	rt.serialTok.release(holder)
	select {
	case <-passed:
	case <-time.After(5 * time.Second):
		t.Fatal("gateSerialized never unblocked after release")
	}
}

func TestDrainOthersWaitsForActiveThreads(t *testing.T) {
	rt := newTestRT(t, 3)
	escalated, _ := rt.NewThread()
	rival, _ := rt.NewThread()

	rival.PublishActive(1)
	done := make(chan struct{})
	go func() {
		rt.drainOthers(escalated)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("drainOthers returned while a rival was active")
	case <-time.After(10 * time.Millisecond):
	}
	rival.PublishInactive()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drainOthers never returned after the rival left")
	}
}
