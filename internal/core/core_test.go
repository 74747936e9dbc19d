package core

import (
	"sync"
	"testing"

	"privstm/internal/orec"
	"privstm/internal/txnlist"
)

func newTestRT(t *testing.T, maxThreads int) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Options{
		HeapWords: 1 << 12, OrecCount: 1 << 8, MaxThreads: maxThreads,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func newActiveThread(t *testing.T, rt *Runtime) *Thread {
	t.Helper()
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	th.ResetTxnState()
	th.StartSnapshot(rt.Active.Enter(th))
	th.Visible = true
	th.PublishActive(th.BeginTS)
	return th
}

func finish(rt *Runtime, th *Thread) {
	th.PublishInactive() // leaves rt.Active: th is visible
}

func TestOptionsValidation(t *testing.T) {
	for _, n := range []int{-1, txnlist.MaxSlots + 1, orec.MaxTID + 1} {
		if _, err := NewRuntime(Options{MaxThreads: n}); err == nil {
			t.Errorf("MaxThreads %d should be rejected", n)
		}
	}
	rt := newTestRT(t, 2)
	if _, err := rt.NewThread(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewThread(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewThread(); err == nil {
		t.Error("thread limit not enforced")
	}
}

func TestReaderMayBeLive(t *testing.T) {
	rt := newTestRT(t, 4)
	th := newActiveThread(t, rt)
	if !rt.ReaderMayBeLive(th.ID, th.BeginTS) {
		t.Error("active thread with begin ≤ rts should be possibly live")
	}
	if rt.ReaderMayBeLive(th.ID, th.BeginTS-1) {
		t.Error("hint older than the thread's begin cannot be its current read")
	}
	finish(rt, th)
	if rt.ReaderMayBeLive(th.ID, th.BeginTS) {
		t.Error("inactive thread reported live")
	}
	if rt.ReaderMayBeLive(99, 5) {
		t.Error("unregistered tid reported live")
	}
}

func TestMakeVisibleFreshUpdate(t *testing.T) {
	rt := newTestRT(t, 4)
	th := newActiveThread(t, rt)
	o := rt.Orecs.At(0)
	th.MakeVisible(o, false)
	rts, tid, multi := orec.UnpackVis(o.Vis().Load())
	if rts < th.BeginTS || tid != th.ID || multi {
		t.Errorf("vis = (%d,%d,%v), want rts ≥ %d, tid %d, no multi",
			rts, tid, multi, th.BeginTS, th.ID)
	}
	if th.Stats.PVUpdates != 1 || th.Stats.PVSkipped != 0 {
		t.Errorf("stats = %+v", th.Stats)
	}
	if !th.publishedHere(o, rts) {
		t.Error("publication log missing the hint")
	}
	// A second read of the same orec in the same transaction skips.
	th.MakeVisible(o, false)
	if th.Stats.PVSkipped != 1 {
		t.Errorf("second read did not skip (stats %+v)", th.Stats)
	}
	finish(rt, th)
}

func TestMakeVisibleSecondReaderSetsMulti(t *testing.T) {
	rt := newTestRT(t, 4)
	r1 := newActiveThread(t, rt)
	r2 := newActiveThread(t, rt)
	o := rt.Orecs.At(0)
	r1.MakeVisible(o, false)
	// r2 began after r1's hint was published at r1's begin… ensure
	// coverage: r2.BeginTS ≥ r1's rts only if no clock movement; the
	// hint's rts = clock at publish = r2's begin here, so r2 is
	// covered and must set the multi bit (r1 may still be live).
	r2.MakeVisible(o, false)
	_, _, multi := orec.UnpackVis(o.Vis().Load())
	if !multi {
		t.Error("second concurrent reader did not set multi")
	}
	if r2.Stats.PVMultiSets != 1 {
		t.Errorf("r2 stats = %+v", r2.Stats)
	}
	// A third reader now skips outright.
	r3 := newActiveThread(t, rt)
	r3.MakeVisible(o, false)
	if r3.Stats.PVSkipped != 1 {
		t.Errorf("third reader did not skip (stats %+v)", r3.Stats)
	}
	finish(rt, r1)
	finish(rt, r2)
	finish(rt, r3)
}

func TestMakeVisibleDeadHintSkipped(t *testing.T) {
	rt := newTestRT(t, 4)
	r1 := newActiveThread(t, rt)
	o := rt.Orecs.At(0)
	r1.MakeVisible(o, false)
	finish(rt, r1) // r1's hint is now dead
	r2 := newActiveThread(t, rt)
	// r2 is covered (clock unchanged) and the hint's owner has finished:
	// no update is needed at all.
	r2.MakeVisible(o, false)
	if r2.Stats.PVSkipped != 1 || r2.Stats.PVMultiSets != 0 {
		t.Errorf("dead hint not skipped: %+v", r2.Stats)
	}
	_, _, multi := orec.UnpackVis(o.Vis().Load())
	if multi {
		t.Error("multi set unnecessarily for a dead hint")
	}
	finish(rt, r2)
}

func TestMakeVisibleUncoveredOverwrites(t *testing.T) {
	rt := newTestRT(t, 4)
	r1 := newActiveThread(t, rt)
	o := rt.Orecs.At(0)
	r1.MakeVisible(o, false)
	old := orec.VisRTS(o.Vis().Load())
	finish(rt, r1)
	rt.Clock.Tick() // move time forward so the next reader is not covered
	r2 := newActiveThread(t, rt)
	r2.MakeVisible(o, false)
	rts, tid, multi := orec.UnpackVis(o.Vis().Load())
	if rts <= old || tid != r2.ID {
		t.Errorf("uncovered read did not refresh hint: rts %d (old %d) tid %d", rts, old, tid)
	}
	if multi {
		t.Error("multi carried although no transaction could be covered by the old hint")
	}
	finish(rt, r2)
}

func TestMakeVisibleCarriesMultiForLiveElder(t *testing.T) {
	// An old reader is still live; a newer uncovered reader overwrites the
	// hint and must carry the multi bit so writers keep fencing for the
	// elder.
	rt := newTestRT(t, 4)
	elder := newActiveThread(t, rt)
	o := rt.Orecs.At(0)
	elder.MakeVisible(o, false)
	rt.Clock.Tick()
	young := newActiveThread(t, rt) // begins after the hint's rts
	young.MakeVisible(o, false)
	_, tid, multi := orec.UnpackVis(o.Vis().Load())
	if tid != young.ID {
		t.Fatalf("hint tid = %d, want %d", tid, young.ID)
	}
	if !multi {
		t.Error("overwriting a possibly-covering hint of a live elder must carry multi")
	}
	finish(rt, elder)
	finish(rt, young)
}

func TestGraceAdaptation(t *testing.T) {
	rt := newTestRT(t, 4)
	grace := rt.Orecs.Grace(rt.Orecs.At(0))
	if grace.Load() != 0 {
		t.Fatal("grace should start at 0")
	}
	for want := uint64(1); want <= DefaultMaxGrace; want *= 2 {
		raiseGrace(grace, rt.MaxGrace)
		if got := grace.Load(); got != want {
			t.Fatalf("grace = %d, want %d", got, want)
		}
	}
	raiseGrace(grace, rt.MaxGrace)
	if got := grace.Load(); got != DefaultMaxGrace {
		t.Errorf("grace exceeded cap: %d", got)
	}
	lowerGrace(grace)
	if got := grace.Load(); got != DefaultMaxGrace/2 {
		t.Errorf("grace after halve = %d", got)
	}
	for i := 0; i < 20; i++ {
		lowerGrace(grace)
	}
	if got := grace.Load(); got != 0 {
		t.Errorf("grace floor = %d, want 0", got)
	}
	// A cap that is not a power of two clips the doubling that would pass it.
	for i := 0; i < 100; i++ {
		raiseGrace(grace, 100)
	}
	if got := grace.Load(); got != 100 {
		t.Errorf("grace = %d, want cap 100", got)
	}
}

func TestGraceExtendsCoverage(t *testing.T) {
	rt := newTestRT(t, 4)
	o := rt.Orecs.At(0)
	rt.Orecs.Grace(o).Store(16)
	r1 := newActiveThread(t, rt)
	r1.MakeVisible(o, true)
	rts := orec.VisRTS(o.Vis().Load())
	if rts != r1.RT.Clock.Now()+16 {
		t.Errorf("rts = %d, want now+16 = %d", rts, r1.RT.Clock.Now()+16)
	}
	if rt.Orecs.Grace(o).Load() != 32 {
		t.Errorf("grace after successful update = %d, want 32", rt.Orecs.Grace(o).Load())
	}
	finish(rt, r1)
	// Future readers within the grace window skip even after clock ticks.
	for i := 0; i < 10; i++ {
		rt.Clock.Tick()
	}
	r2 := newActiveThread(t, rt)
	r2.MakeVisible(o, true)
	if r2.Stats.PVSkipped != 1 {
		t.Errorf("read within grace window did not skip: %+v", r2.Stats)
	}
	finish(rt, r2)
}

func TestReaderConflictScanSelfOnly(t *testing.T) {
	// Write-after-read (§II-E): a transaction that reads then writes the
	// same orec must not fence on its own hint.
	rt := newTestRT(t, 4)
	w := newActiveThread(t, rt)
	other := newActiveThread(t, rt) // some unrelated concurrent txn
	o := rt.Orecs.At(0)
	w.MakeVisible(o, false)
	if !w.acquireOrec(o) {
		t.Fatal("acquire failed")
	}
	if _, conflict := w.readerConflictScan(false); conflict {
		t.Error("self-only hint caused a conflict")
	}
	finish(rt, other)
	finish(rt, w)
}

func TestReaderConflictScanForeignReader(t *testing.T) {
	rt := newTestRT(t, 4)
	r := newActiveThread(t, rt)
	w := newActiveThread(t, rt)
	o := rt.Orecs.At(0)
	r.MakeVisible(o, false)
	if !w.acquireOrec(o) {
		t.Fatal("acquire failed")
	}
	threshold, conflict := w.readerConflictScan(false)
	if !conflict {
		t.Fatal("live foreign reader not detected")
	}
	if threshold < r.BeginTS {
		t.Errorf("threshold %d below reader begin %d", threshold, r.BeginTS)
	}
	// Once the reader finishes, the same hint no longer conflicts.
	finish(rt, r)
	if _, conflict := w.readerConflictScan(false); conflict {
		t.Error("completed reader still causes conflicts")
	}
	finish(rt, w)
}

func TestReaderConflictScanStaleSelfHint(t *testing.T) {
	// A hint this thread published in an *earlier* transaction must not be
	// claimed as self-only: another live reader may be covered by it.
	rt := newTestRT(t, 4)
	w := newActiveThread(t, rt)
	o := rt.Orecs.At(0)
	w.MakeVisible(o, false)
	finish(rt, w)

	// Another reader starts and is covered by w's old hint (clock has not
	// moved), so it may skip; w then starts a new transaction and writes o.
	r := newActiveThread(t, rt)
	r.MakeVisible(o, false)

	w.ResetTxnState()
	w.StartSnapshot(rt.Active.Enter(w))
	w.Visible = true
	w.PublishActive(w.BeginTS)
	if !w.acquireOrec(o) {
		t.Fatal("acquire failed")
	}
	if _, conflict := w.readerConflictScan(false); !conflict {
		t.Error("stale self hint was claimed as self-only; covered reader lost")
	}
	finish(rt, r)
	finish(rt, w)
}

func TestPrivatizationFenceWaitsForReaderGeneration(t *testing.T) {
	rt := newTestRT(t, 4)
	r := newActiveThread(t, rt)
	w := newActiveThread(t, rt)
	threshold := r.BeginTS
	finish(rt, w) // writers leave the list before fencing

	released := make(chan struct{})
	go func() {
		w.privatizationFence(threshold)
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("fence returned while a conflicting reader was live")
	default:
	}
	finish(rt, r)
	<-released
	if w.Stats.Fenced != 1 {
		t.Errorf("Fenced = %d", w.Stats.Fenced)
	}
}

func TestPrivatizationFenceIgnoresYoungerTxns(t *testing.T) {
	rt := newTestRT(t, 4)
	r := newActiveThread(t, rt)
	threshold := r.BeginTS
	finish(rt, r)
	rt.Clock.Tick()
	young := newActiveThread(t, rt) // begins after the threshold
	defer finish(rt, young)

	w := newActiveThread(t, rt)
	finish(rt, w)
	done := make(chan struct{})
	go func() {
		w.privatizationFence(threshold)
		close(done)
	}()
	<-done // must not block on the younger transaction
}

func TestValidationFence(t *testing.T) {
	rt := newTestRT(t, 4)
	w := newActiveThread(t, rt)
	r := newActiveThread(t, rt)
	wts := rt.Clock.Tick()
	finish(rt, w)

	released := make(chan struct{})
	go func() {
		w.validationFence(wts)
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("validation fence returned before the reader reached a clean point")
	default:
	}
	// The reader publishes a validation at ≥ wts: the fence must release.
	r.setValidated(wts)
	<-released
	finish(rt, r)
}

// TestMakeVisibleStress hammers one orec with concurrent visibility
// updates, with and without grace periods, and checks the two core
// guarantees: after a reader's MakeVisible returns the orec covers it
// (rts ≥ its begin), and per-orec rts never decreases.
func TestMakeVisibleStress(t *testing.T) {
	rt := newTestRT(t, 16)
	o := rt.Orecs.At(1)
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		th, err := rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			lastRTS := uint64(0)
			for j := 0; j < iters; j++ {
				th.ResetTxnState()
				th.StartSnapshot(rt.Active.Enter(th))
				th.Visible = true
				th.PublishActive(th.BeginTS)
				th.MakeVisible(o, j%2 == 0)
				rts := orec.VisRTS(o.Vis().Load())
				if rts < th.BeginTS {
					t.Errorf("after MakeVisible, rts %d < begin %d", rts, th.BeginTS)
				}
				if rts < lastRTS {
					// rts may legitimately appear lower than a *previously
					// sampled* value only if another reader overwrote in
					// between with a larger one we then race past; re-check
					// against the live value.
					if cur := orec.VisRTS(o.Vis().Load()); cur < lastRTS {
						t.Errorf("orec rts regressed: %d after %d", cur, lastRTS)
					}
				}
				lastRTS = rts
				finish(rt, th)
				if j%16 == 0 {
					rt.Clock.Tick()
				}
			}
		}(th)
	}
	wg.Wait()
}

// TestConflictScanWithGraceAdaptation: a conflicting scan halves grace on
// exactly the conflicting orecs.
func TestConflictScanWithGraceAdaptation(t *testing.T) {
	rt := newTestRT(t, 4)
	r := newActiveThread(t, rt)
	w := newActiveThread(t, rt)
	o1 := rt.Orecs.At(0)
	o2 := rt.Orecs.At(1)
	rt.Orecs.Grace(o1).Store(32)
	rt.Orecs.Grace(o2).Store(32)
	r.MakeVisible(o1, true) // raises o1's grace to 64
	if !w.acquireOrec(o1) || !w.acquireOrec(o2) {
		t.Fatal("acquire failed")
	}
	if _, conflict := w.readerConflictScan(true); !conflict {
		t.Fatal("conflict not detected")
	}
	if got := rt.Orecs.Grace(o1).Load(); got != 32 {
		t.Errorf("conflicting orec grace = %d, want 32 (halved from 64)", got)
	}
	if got := rt.Orecs.Grace(o2).Load(); got != 32 {
		t.Errorf("non-conflicting orec grace = %d, want 32 (untouched)", got)
	}
	finish(rt, r)
	finish(rt, w)
}
