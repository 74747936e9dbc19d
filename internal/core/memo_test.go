package core

import (
	"testing"
	"testing/quick"

	"privstm/internal/heap"
	"privstm/internal/orec"
)

// TestReadMemoHit: the second load of the block just read does the
// consistent read and nothing else — no read-set growth, no visibility
// protocol (not even the hint-cache probe a stale vis word would otherwise
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

	if w := th.ReadVisible(a, false, VisCAS); w != 11 {
		t.Fatalf("first read = %d, want 11", w)
	}
	if th.Stats.PVReads != 1 || th.Stats.PVUpdates != 1 || th.Reads.Len() != 1 {
		t.Fatalf("first read: PVReads=%d PVUpdates=%d reads=%d, want 1/1/1",
			th.Stats.PVReads, th.Stats.PVUpdates, th.Reads.Len())
	}
	staleVis(o) // the full protocol would now republish or probe the cache
	skipped := th.Stats.PVSkipped
	for i := 0; i < 3; i++ {
		if w := th.ReadVisible(a+1, false, VisCAS); w != 22 {
			t.Fatalf("memo read = %d, want 22", w)
		}
	}
	if th.Stats.PVReads != 4 || th.Stats.PVSkipped != skipped+3 {
		t.Errorf("memo hits: PVReads=%d PVSkipped=%d, want 4/%d", th.Stats.PVReads, th.Stats.PVSkipped, skipped+3)
	}
	if th.Stats.PVUpdates != 1 || th.Stats.PVCacheHits != 0 || th.Reads.Len() != 1 || o.Vis().Load() != 0 {
		t.Errorf("memo hit ran the protocol: PVUpdates=%d cacheHits=%d reads=%d vis=%#x",
			th.Stats.PVUpdates, th.Stats.PVCacheHits, th.Reads.Len(), o.Vis().Load())
	}

	// Acquiring the block moves the owner word: the memo misses once, the
	// own-write path re-arms it on the owned word, and later loads hit.
	if !th.AcquireOrec(o) {
		t.Fatal("AcquireOrec failed")
	}
	rt.Heap.AtomicStore(a+1, 33)
	pv := th.Stats.PVReads
	if w := th.ReadVisible(a+1, false, VisCAS); w != 33 {
		t.Fatalf("read of own write = %d, want 33", w)
	}
	if th.Stats.PVReads != pv {
		t.Error("reading an own in-place write ran the visibility protocol")
	}
	if w := th.ReadVisible(a, false, VisCAS); w != 11 || th.Stats.PVReads != pv+1 {
		t.Errorf("memo on the owned block: read %d PVReads %d, want 11/%d", w, th.Stats.PVReads, pv+1)
	}
	th.Acq.RestoreAll()
	finish(rt, th)

	// A new transaction does not inherit the memo; neither does a snapshot
	// extension.
	th.ResetTxnState()
	if th.memoOrec != nil {
		t.Error("memo survived ResetTxnState")
	}
	th.StartSnapshot(rt.Clock.Now())
	th.ExtendOK = true
	th.PublishActive(th.BeginTS)
	_ = th.ReadHeapConsistent(a)
	if th.memoOrec != o {
		t.Fatal("invisible read did not arm the memo")
	}
	n := th.Reads.Len()
	if w := th.ReadHeapConsistent(a + 1); w != 33 || th.Reads.Len() != n {
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

// TestReadMemoNeverChangesTheLog: random single-threaded transactions —
// visible and invisible loads, in-place writes, snapshot extensions — are
// run twice on identical runtimes, once with the memo armed and once with
// it forced off. After every step both must have logged the same reads
// (same entries, same timestamps), and a rival's commit over any block
// must fail or pass both validations alike: the memo only ever skips work
// whose result is already in place.
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
				_ = w.th.ReadVisible(a, true, VisStore)
			} else {
				_ = w.th.ReadHeapConsistent(a)
			}
		case 5, 6:
			if visible { // in-place write, as pvr.Engine.Write does it
				if !w.th.AcquireOrec(w.rt.Orecs.For(a)) {
					t.Fatal("AcquireOrec failed with no rival")
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
	same := func(x, y *world) bool {
		if x.th.Reads.Len() != y.th.Reads.Len() {
			return false
		}
		for i := 0; i < x.th.Reads.Len(); i++ {
			ex, ey := x.th.Reads.At(i), y.th.Reads.At(i)
			if ex.Orec.Index() != ey.Orec.Index() || ex.WTS != ey.WTS {
				return false
			}
		}
		return true
	}
	for _, visible := range []bool{true, false} {
		prop := func(prog []step, victim uint8) bool {
			on, off := mk(false, visible), mk(true, visible)
			for _, st := range prog {
				apply(on, visible, st)
				apply(off, visible, st)
				if !same(on, off) {
					t.Logf("visible=%v: logs diverged after %+v: %d vs %d entries", visible, st, on.th.Reads.Len(), off.th.Reads.Len())
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
			return on.th.ValidateReads() == off.th.ValidateReads()
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("visible=%v: %v", visible, err)
		}
	}
}

// TestReadMemoAllocates0: the memo path, like every steady-state read,
// allocates nothing.
func TestReadMemoAllocates0(t *testing.T) {
	rt := newTestRT(t, 4)
	rt.Clock.Tick()
	a := rt.Heap.MustAlloc(2)
	th := newActiveThread(t, rt)
	_ = th.ReadVisible(a, true, VisStore)
	hits := th.Stats.PVSkipped
	if n := testing.AllocsPerRun(200, func() {
		_ = th.ReadVisible(a+1, true, VisStore)
		_ = th.ReadVisible(a, true, VisStore)
		_ = th.ReadHeapConsistent(a + 1)
	}); n != 0 {
		t.Errorf("memo path allocates %v per run, want 0", n)
	}
	if th.Stats.PVSkipped < hits+400 {
		t.Errorf("the measured loop did not take the memo path (PVSkipped %d → %d)", hits, th.Stats.PVSkipped)
	}
	finish(rt, th)
}
