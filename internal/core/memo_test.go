package core

import (
	"maps"
	"testing"
	"testing/quick"

	"privstm/internal/heap"
	"privstm/internal/logs"
	"privstm/internal/orec"
)

// TestReadMemoHit: the second load of the block just read does the
// consistent read and nothing else — no read-set growth, no visibility
// protocol (not even the republication a stale vis word would otherwise
// cost) — and is counted as a skipped visibility update.
func TestReadMemoHit(t *testing.T) {
	rt := newTestRT(t, 4)
	rt.Clock.Tick() // BeginTS > 0, so a zeroed vis word is not covering
	a := rt.Heap.MustAlloc(2)
	rt.Heap.Store(a, 11)
	rt.Heap.Store(a+1, 22)
	th := newActiveThread(t, rt)
	o := rt.Orecs.For(a)
	if rt.Orecs.For(a+1) != o {
		t.Fatal("the two words of a default-size extent do not share an orec")
	}

	if w := th.readVisible(a, false); w != 11 {
		t.Fatalf("first read = %d, want 11", w)
	}
	if th.Stats.PVReads != 1 || th.Stats.PVUpdates != 1 || th.Reads.Len() != 1 {
		t.Fatalf("first read: PVReads=%d PVUpdates=%d reads=%d, want 1/1/1",
			th.Stats.PVReads, th.Stats.PVUpdates, th.Reads.Len())
	}
	staleVis(o) // the full protocol would now republish
	skipped := th.Stats.PVSkipped
	for i := 0; i < 3; i++ {
		if w := th.readVisible(a+1, false); w != 22 {
			t.Fatalf("memo read = %d, want 22", w)
		}
	}
	if th.Stats.PVReads != 4 || th.Stats.PVSkipped != skipped+3 {
		t.Errorf("memo hits: PVReads=%d PVSkipped=%d, want 4/%d", th.Stats.PVReads, th.Stats.PVSkipped, skipped+3)
	}
	if th.Stats.PVUpdates != 1 || th.Reads.Len() != 1 || o.Vis().Load() != 0 {
		t.Errorf("memo hit ran the protocol: PVUpdates=%d reads=%d vis=%#x",
			th.Stats.PVUpdates, th.Reads.Len(), o.Vis().Load())
	}

	// Acquiring the block moves the owner word: the memo misses once, the
	// own-write path re-arms it on the owned word, and later loads hit.
	if !th.acquireOrec(o) {
		t.Fatal("acquireOrec failed")
	}
	rt.Heap.AtomicStore(a+1, 33)
	pv := th.Stats.PVReads
	if w := th.readVisible(a+1, false); w != 33 {
		t.Fatalf("read of own write = %d, want 33", w)
	}
	if th.Stats.PVReads != pv {
		t.Error("reading an own in-place write ran the visibility protocol")
	}
	if w := th.readVisible(a, false); w != 11 || th.Stats.PVReads != pv+1 {
		t.Errorf("memo on the owned block: read %d PVReads %d, want 11/%d", w, th.Stats.PVReads, pv+1)
	}
	th.abort() // releases o at a fresh tick and leaves the tracker

	// A new transaction does not inherit the memo; neither does a snapshot
	// extension.
	th.ResetTxnState()
	if th.memoOrec != nil {
		t.Error("memo survived ResetTxnState")
	}
	th.StartSnapshot(rt.Clock.Now())
	th.ExtendOK = true
	th.PublishActive(th.BeginTS)
	_ = th.readHeapConsistent(a)
	if th.memoOrec != o {
		t.Fatal("invisible read did not arm the memo")
	}
	n := th.Reads.Len()
	if w := th.readHeapConsistent(a + 1); w != 33 || th.Reads.Len() != n {
		t.Errorf("invisible memo read = %d with %d entries, want 33 with %d", w, th.Reads.Len(), n)
	}
	rt.Clock.Tick()
	if !th.TryExtend() {
		t.Fatal("TryExtend failed on an untouched read set")
	}
	if th.memoOrec != nil {
		t.Error("memo survived a snapshot extension")
	}
	th.PublishInactive()
}

// TestTryExtendFlushesReadMemo: a successful snapshot extension must drop
// the read memo (its argument is scoped to one validity interval), so the
// next load of the memoized block goes back through the full visibility
// protocol, which then re-arms the memo for later loads.
func TestTryExtendFlushesReadMemo(t *testing.T) {
	rt := newTestRT(t, 4)
	rt.Clock.Tick() // BeginTS > 0, so a zeroed vis word is not covering
	a := rt.Heap.MustAlloc(2)
	rt.Heap.Store(a, 11)
	th := newActiveThread(t, rt)
	th.ExtendOK = true
	o := rt.Orecs.For(a)

	th.readVisible(a, false) // publish, arm the memo
	staleVis(o)
	th.readVisible(a, false)
	if th.Stats.PVUpdates != 1 || th.memoOrec != o {
		t.Fatalf("pre-extension: PVUpdates=%d memo armed=%v, want 1/true",
			th.Stats.PVUpdates, th.memoOrec == o)
	}

	rt.Clock.Tick() // something committed: extension has work to do
	if !th.TryExtend() {
		t.Fatal("TryExtend failed on an untouched read set")
	}
	if th.memoOrec != nil {
		t.Fatal("memo survived a snapshot extension")
	}

	// The load after the extension must miss the memo and republish over
	// the stale vis word...
	if w := th.readVisible(a, false); w != 11 {
		t.Fatalf("post-extension read = %d, want 11", w)
	}
	if th.Stats.PVUpdates != 2 {
		t.Errorf("post-extension: PVUpdates=%d, want 2 (memo must be flushed)", th.Stats.PVUpdates)
	}
	// ...and re-arm the memo, so a later stale load skips the protocol.
	staleVis(o)
	skipped := th.Stats.PVSkipped
	th.readVisible(a, false)
	if th.Stats.PVUpdates != 2 || th.Stats.PVSkipped != skipped+1 {
		t.Errorf("re-armed read: PVUpdates=%d PVSkipped=%d, want 2/%d",
			th.Stats.PVUpdates, th.Stats.PVSkipped, skipped+1)
	}
	finish(rt, th)
}

// TestPollValidateExtensionFlushesReadMemo is the pollValidate twin of
// TestTryExtendFlushesReadMemo: an incremental validation that extends the
// snapshot drops the memo, and one with nothing to extend keeps it.
func TestPollValidateExtensionFlushesReadMemo(t *testing.T) {
	rt := newTestRT(t, 4)
	rt.Clock.Tick()
	a := rt.Heap.MustAlloc(2)
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	th.ResetTxnState()
	th.StartSnapshot(rt.Clock.Now())
	th.ExtendOK = true
	th.PublishActive(th.BeginTS)
	_ = th.readHeapConsistent(a)
	th.pollValidate() // the clock has not moved: nothing to validate
	if th.memoOrec == nil {
		t.Fatal("pollValidate without a commit dropped the memo")
	}
	rt.Clock.Tick()
	th.pollValidate()
	if th.ValidTS != rt.Clock.Now() {
		t.Fatalf("pollValidate did not extend: ValidTS %d, clock %d", th.ValidTS, rt.Clock.Now())
	}
	if th.memoOrec != nil {
		t.Error("memo survived a pollValidate extension")
	}
	th.PublishInactive()
}

// TestReadMemoNeverChangesTheLog: random single-threaded transactions —
// visible and invisible loads, in-place writes, snapshot extensions — are
// run twice on identical runtimes, once with the memo armed and once with
// it forced off. The read log is append-only, so the memo-off run logs
// every re-read the memo skips; what must agree after every step is the
// set of distinct (orec, wts) pairs logged and the ValidateReads verdict,
// and a rival's commit over any block must fail or pass both validations
// alike: the memo only ever skips work whose result is already in place.
func TestReadMemoNeverChangesTheLog(t *testing.T) {
	const words = 16
	type step struct {
		Addr uint8
		Kind uint8
	}
	type world struct {
		rt   *Runtime
		th   *Thread
		base heap.Addr
	}
	mk := func(noMemo, visible bool) *world {
		rt := newTestRT(t, 4)
		rt.Clock.Tick()
		w := &world{rt: rt, base: rt.Heap.MustAlloc(words)}
		th, err := rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		th.noMemo = noMemo
		th.ResetTxnState()
		if visible {
			th.StartSnapshot(rt.Active.Enter(th))
			th.Visible = true
		} else {
			th.StartSnapshot(rt.Clock.Now())
			th.ExtendOK = true
		}
		th.PublishActive(th.BeginTS)
		w.th = th
		return w
	}
	apply := func(w *world, visible bool, st step) {
		a := w.base + heap.Addr(st.Addr)%words
		switch st.Kind % 8 {
		case 0, 1, 2, 3, 4:
			if visible {
				_ = w.th.readVisible(a, true)
			} else {
				_ = w.th.readHeapConsistent(a)
			}
		case 5, 6:
			if visible { // in-place write, as an undo-log Policy.Write does it
				if !w.th.acquireOrec(w.rt.Orecs.For(a)) {
					t.Fatal("acquireOrec failed with no rival")
				}
				w.th.Undo.Add(a, w.rt.Heap.AtomicLoad(a))
				w.rt.Heap.AtomicStore(a, heap.Word(st.Addr))
			}
		default:
			if !visible { // a rival-free commit elsewhere, then an extension
				w.rt.Clock.Tick()
				w.th.TryExtend()
			}
		}
	}
	logged := func(w *world) map[[2]uint64]bool {
		m := map[[2]uint64]bool{}
		for i := 0; i < w.th.Reads.Len(); i++ {
			e := w.th.Reads.At(i)
			m[[2]uint64{uint64(w.rt.Orecs.Slot(e.Orec)), e.WTS}] = true
		}
		return m
	}
	same := func(x, y *world) bool {
		return maps.Equal(logged(x), logged(y)) && x.th.ValidateReads() == y.th.ValidateReads()
	}
	for _, visible := range []bool{true, false} {
		prop := func(prog []step, victim uint8) bool {
			on, off := mk(false, visible), mk(true, visible)
			for _, st := range prog {
				apply(on, visible, st)
				apply(off, visible, st)
				if !same(on, off) {
					t.Logf("visible=%v: logs diverged after %+v: %d vs %d distinct reads", visible, st, len(logged(on)), len(logged(off)))
					return false
				}
			}
			if off.th.memoOrec != nil {
				t.Log("the test hook left the memo armed")
				return false
			}
			if !on.th.ValidateReads() || !off.th.ValidateReads() {
				t.Logf("visible=%v: an undisturbed read set failed validation", visible)
				return false
			}
			// A rival commits over one block (unless this transaction owns it).
			for _, w := range []*world{on, off} {
				o := w.rt.Orecs.For(w.base + heap.Addr(victim)%words)
				if v := o.Owner().Load(); !orec.IsOwned(v) {
					o.Owner().Store(orec.PackUnowned(w.rt.Clock.Tick()))
				}
			}
			return same(on, off)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("visible=%v: %v", visible, err)
		}
	}
}

// TestValidateReadsIgnoresDuplicates: the read log is append-only, so it
// may hold a block more than once — the same (orec, wts) read again after
// another block, an own-write entry at BeginTS logged once per read of the
// owned block. ValidateReads must give such a log exactly the verdict it
// gives the set of its distinct entries, undisturbed and after a rival
// commits over any one orec; and a duplicate at a newer timestamp (the
// block changed between the two reads) fails both alike, through the older
// entry.
func TestValidateReadsIgnoresDuplicates(t *testing.T) {
	rt := newTestRT(t, 4)
	rt.Clock.Tick()
	th := newActiveThread(t, rt)
	o := []*orec.Orec{rt.Orecs.At(1), rt.Orecs.At(2), rt.Orecs.At(3), rt.Orecs.At(4)}
	verdict := func(log []logs.ReadEntry) bool {
		th.Reads.Reset()
		for _, e := range log {
			th.Reads.Add(e.Orec, 0, e.WTS)
		}
		return th.ValidateReads()
	}
	distinct := func(log []logs.ReadEntry) []logs.ReadEntry {
		var out []logs.ReadEntry
		seen := map[logs.ReadEntry]bool{}
		for _, e := range log {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
		return out
	}
	wts := func(o *orec.Orec) uint64 { return orec.WTS(o.Owner().Load()) }
	// o[0] and o[1] are read, o[2] is read, written in place and read back;
	// o[3] is never read.
	log := []logs.ReadEntry{
		{Orec: o[0], WTS: wts(o[0])}, {Orec: o[1], WTS: wts(o[1])}, {Orec: o[0], WTS: wts(o[0])},
		{Orec: o[2], WTS: wts(o[2])}, {Orec: o[0], WTS: wts(o[0])},
	}
	if !th.acquireOrec(o[2]) {
		t.Fatal("acquireOrec failed with no rival")
	}
	log = append(log, logs.ReadEntry{Orec: o[2], WTS: th.BeginTS}, logs.ReadEntry{Orec: o[1], WTS: wts(o[1])},
		logs.ReadEntry{Orec: o[2], WTS: th.BeginTS})
	dedup := distinct(log)
	if len(dedup) >= len(log) {
		t.Fatal("the test log holds no duplicates")
	}
	if !verdict(log) || !verdict(dedup) {
		t.Fatal("an undisturbed log failed validation")
	}
	for i, victim := range o {
		before := victim.Owner().Load()
		if !orec.IsOwned(before) {
			victim.Owner().Store(orec.PackUnowned(rt.Clock.Tick()))
		}
		got, want := verdict(log), verdict(dedup)
		if got != want {
			t.Errorf("rival commit over o[%d]: duplicates validate %v, distinct entries %v", i, got, want)
		}
		if wantValid := i >= 2; want != wantValid {
			t.Errorf("rival commit over o[%d]: verdict %v, want %v", i, want, wantValid)
		}
		victim.Owner().Store(before)
	}
	// The block changed between two reads: the newer entry is a duplicate
	// at a different timestamp, and the older one dooms both logs.
	old := logs.ReadEntry{Orec: o[3], WTS: wts(o[3])}
	o[3].Owner().Store(orec.PackUnowned(rt.Clock.Tick()))
	log = append(log, old, logs.ReadEntry{Orec: o[3], WTS: wts(o[3])})
	if got, want := verdict(log), verdict(distinct(log)); got || want {
		t.Errorf("a re-read past a rival commit: duplicates validate %v, distinct entries %v, want false", got, want)
	}
	th.abort()
}

// TestReadMemoAllocates0: the memo path, like every steady-state read,
// allocates nothing.
func TestReadMemoAllocates0(t *testing.T) {
	rt := newTestRT(t, 4)
	rt.Clock.Tick()
	a := rt.Heap.MustAlloc(2)
	th := newActiveThread(t, rt)
	_ = th.readVisible(a, true)
	hits := th.Stats.PVSkipped
	if n := testing.AllocsPerRun(200, func() {
		_ = th.readVisible(a+1, true)
		_ = th.readVisible(a, true)
		_ = th.readHeapConsistent(a + 1)
	}); n != 0 {
		t.Errorf("memo path allocates %v per run, want 0", n)
	}
	if th.Stats.PVSkipped < hits+400 {
		t.Errorf("the measured loop did not take the memo path (PVSkipped %d → %d)", hits, th.Stats.PVSkipped)
	}
	finish(rt, th)
}
