package core

import (
	"testing"
	"time"

	"privstm/internal/spin"
)

// countingCM records Wait/Reset calls so tests can pin Run's CM protocol.
type countingCM struct {
	waits  int
	resets int
}

func (c *countingCM) Wait(*Thread) { c.waits++ }
func (c *countingCM) Reset()       { c.resets++ }

func TestParseCMPolicy(t *testing.T) {
	for _, p := range []CMPolicy{CMBackoff, CMKarma, CMSerialize} {
		got, err := ParseCMPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseCMPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseCMPolicy("nope"); err == nil {
		t.Error("ParseCMPolicy accepted garbage")
	}
}

func TestAttemptLimit(t *testing.T) {
	cases := []struct {
		cm   CMPolicy
		max  int
		want int
	}{
		{CMBackoff, 0, DefaultMaxAttempts},
		{CMBackoff, 5, 5},
		{CMBackoff, -1, 0}, // escalation disabled
		{CMKarma, 0, DefaultMaxAttempts},
		{CMSerialize, 0, 1},
		{CMSerialize, 99, 1}, // serialize escalates after the first abort regardless
	}
	for _, c := range cases {
		rt := &Runtime{CMKind: c.cm, MaxAttempts: c.max}
		if got := rt.attemptLimit(); got != c.want {
			t.Errorf("attemptLimit(cm=%v, max=%d) = %d, want %d", c.cm, c.max, got, c.want)
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

func TestRunSkipsWaitBeforeEscalation(t *testing.T) {
	rt := newTestRTOpts(t, Options{MaxAttempts: 3})
	e := &fakeEngine{rt: rt, commitOK: true}
	th, _ := rt.NewThread()
	cm := &countingCM{}
	th.cm = cm
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
	// attempts (after aborts 1 and 2, not after abort 3 — the satellite
	// fix), and the serialized attempt commits.
	if cm.waits != 2 {
		t.Errorf("cm.Wait called %d times, want 2 (skipped before escalation)", cm.waits)
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
	cm := &countingCM{}
	th.cm = cm
	attempt := 0
	if err := Run(e, th, func() {
		attempt++
		if attempt == 1 {
			th.ConflictAbort()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if cm.waits != 1 || cm.resets != 1 {
		t.Errorf("waits=%d resets=%d, want 1/1 (CM state reset after commit)", cm.waits, cm.resets)
	}
}

func TestSerializePolicyEscalatesImmediately(t *testing.T) {
	rt := newTestRTOpts(t, Options{CM: CMSerialize})
	e := &fakeEngine{rt: rt, commitOK: true}
	th, _ := rt.NewThread()
	cm := &countingCM{}
	th.cm = cm
	attempt := 0
	if err := Run(e, th, func() {
		attempt++
		if attempt == 1 {
			th.ConflictAbort()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if cm.waits != 0 {
		t.Errorf("CMSerialize waited %d times, want 0", cm.waits)
	}
	if th.Stats.Serialized != 1 {
		t.Errorf("Serialized = %d, want 1", th.Stats.Serialized)
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

func TestKarmaCMExemptsRichTransactionsFromSleep(t *testing.T) {
	rt := newTestRTOpts(t, Options{CM: CMKarma})
	th, _ := rt.NewThread()
	cm, ok := th.cm.(*karmaCM)
	if !ok {
		t.Fatalf("CMKarma runtime built %T", th.cm)
	}
	// Poor transaction deep in the backoff schedule: Wait sleeps and the
	// schedule keeps advancing.
	cm.b.Skip(40)
	cm.Wait(th)
	if got := cm.b.Attempts(); got != 41 {
		t.Fatalf("poor Wait left attempts=%d, want 41", got)
	}
	cm.Reset()

	// Rich transaction: invested work crosses the exemption threshold, so a
	// Wait that would enter the sleep phase resets to the busy phase instead
	// of parking.
	for i := 0; i < karmaSleepExempt; i++ {
		th.Undo.Add(0, 0)
	}
	cm.b.Skip(40)
	cm.Wait(th)
	if cm.karma < karmaSleepExempt {
		t.Fatalf("karma = %d, want >= %d", cm.karma, karmaSleepExempt)
	}
	if got := cm.b.Attempts(); got != 1 {
		t.Fatalf("rich Wait left attempts=%d, want 1 (reset instead of sleeping)", got)
	}
	if cm.b.Phase() != spin.PhaseBusy {
		t.Fatalf("rich Wait left phase %v, want busy", cm.b.Phase())
	}
	cm.Reset()
	if cm.karma != 0 {
		t.Errorf("Reset kept karma %d", cm.karma)
	}
}
