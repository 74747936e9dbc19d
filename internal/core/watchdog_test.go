package core

import (
	"testing"
	"time"

	"privstm/internal/spin"
)

func TestStallLimit(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultStallThreshold},
		{7, 7},
		{-1, 0}, // watchdog disabled
	}
	for _, c := range cases {
		rt := &Runtime{StallThreshold: c.in}
		if got := rt.stallLimit(); got != c.want {
			t.Errorf("stallLimit(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPrivatizationFenceWatchdogDetectsStalledReader(t *testing.T) {
	stalls := make(chan StallInfo, 4)
	rt := newTestRTOpts(t, Options{
		StallThreshold: 4,
		OnStall:        func(info StallInfo) { stalls <- info },
	})
	reader, _ := rt.NewThread()
	writer, _ := rt.NewThread()

	// The reader registers and then makes no progress — the injected-stall
	// scenario the fence must detect rather than silently spin on.
	begin := rt.Active.Enter(reader)
	reader.PublishActive(begin)

	done := make(chan struct{})
	go func() {
		writer.privatizationFence(begin) // threshold ≥ begin: must wait
		close(done)
	}()

	var info StallInfo
	select {
	case info = <-stalls:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never fired for a stalled reader")
	}
	if info.Fence != FencePrivatization {
		t.Errorf("info.Fence = %q", info.Fence)
	}
	if info.WaiterID != writer.ID {
		t.Errorf("info.WaiterID = %d, want %d", info.WaiterID, writer.ID)
	}
	if info.BlockerID != int64(reader.ID) {
		t.Errorf("info.BlockerID = %d, want %d (the stalled reader)", info.BlockerID, reader.ID)
	}
	if info.BlockerBegin != begin || info.Bound != begin {
		t.Errorf("info begin/bound = %d/%d, want %d/%d", info.BlockerBegin, info.Bound, begin, begin)
	}
	if info.Rounds < 4 {
		t.Errorf("info.Rounds = %d, want >= threshold 4", info.Rounds)
	}
	select {
	case <-done:
		t.Fatal("fence returned while the reader was still registered (unsound)")
	default:
	}

	// Detection is diagnostic only: the fence completes normally once the
	// reader finishes.
	rt.Active.Leave(reader)
	reader.PublishInactive()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fence never returned after the reader left")
	}
	// One firing per stall, not one per round.
	if extra := len(stalls); extra != 0 {
		t.Errorf("watchdog fired %d extra times for the same stall", extra+1)
	}
}

func TestValidationFenceWatchdogDetectsStalledReader(t *testing.T) {
	stalls := make(chan StallInfo, 4)
	rt := newTestRTOpts(t, Options{
		StallThreshold: 4,
		OnStall:        func(info StallInfo) { stalls <- info },
	})
	reader, _ := rt.NewThread()
	writer, _ := rt.NewThread()

	reader.PublishActive(1)
	wts := uint64(5)

	done := make(chan struct{})
	go func() {
		writer.validationFence(wts)
		close(done)
	}()

	var info StallInfo
	select {
	case info = <-stalls:
	case <-time.After(10 * time.Second):
		t.Fatal("validation-fence watchdog never fired")
	}
	if info.Fence != FenceValidation || info.BlockerID != int64(reader.ID) || info.Bound != wts {
		t.Errorf("info = %+v", info)
	}

	// Publishing a validation at ≥ wts is the reader's clean point.
	reader.setValidated(wts)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fence never returned after the reader validated")
	}
	reader.PublishInactive()
}

func TestWatchdogCountsProgressAsFresh(t *testing.T) {
	// A thread that finishes and starts a new transaction at the SAME begin
	// timestamp must count as progress: the publication sequence number
	// distinguishes the two, so the watchdog restarts its round counter
	// rather than firing.
	rt := newTestRTOpts(t, Options{StallThreshold: 8})
	u, _ := rt.NewThread()
	w, _ := rt.NewThread()

	u.PublishActive(3)
	var watch stallWatch
	var b spin.Backoff
	for i := 0; i < 6; i++ {
		watch.observe(w, FenceValidation, int64(u.ID), u.BeginSeq(), 3, 9, &b)
	}
	if watch.rounds != 6 {
		t.Fatalf("rounds = %d, want 6", watch.rounds)
	}
	// Same timestamp, new transaction: sequence number changes.
	u.PublishInactive()
	u.PublishActive(3)
	watch.observe(w, FenceValidation, int64(u.ID), u.BeginSeq(), 3, 9, &b)
	if watch.rounds != 1 {
		t.Fatalf("rounds after restart = %d, want 1 (progress detected)", watch.rounds)
	}
	if w.Stats.FenceStalls != 0 {
		t.Fatalf("FenceStalls = %d, want 0", w.Stats.FenceStalls)
	}
}
