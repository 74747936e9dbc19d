package logs

import (
	"testing"
	"testing/quick"

	"privstm/internal/heap"
	"privstm/internal/orec"
)

// testOrecs returns n distinct orec handles backed by one table, so each
// has a unique Index — the key the ReadSet and PubLog filters use.
func testOrecs(n int) []*orec.Orec {
	tab := orec.NewTable(n, 1)
	out := make([]*orec.Orec, n)
	for i := range out {
		out[i] = tab.At(i)
	}
	return out
}

func TestReadSet(t *testing.T) {
	var rs ReadSet
	os := testOrecs(2)
	o1, o2 := os[0], os[1]
	rs.Add(o1, 10, 5)
	rs.Add(o2, 20, 7)
	if rs.Len() != 2 {
		t.Fatalf("Len = %d", rs.Len())
	}
	if e := rs.At(0); e.Orec != o1 || e.Addr != 10 || e.WTS != 5 {
		t.Errorf("entry 0 = %+v", e)
	}
	rs.Reset()
	if rs.Len() != 0 {
		t.Error("Reset did not empty the set")
	}
	rs.Add(o2, 30, 9)
	if e := rs.At(0); e.Orec != o2 || e.Addr != 30 {
		t.Errorf("entry after reuse = %+v", e)
	}
}

func TestReadSetDedup(t *testing.T) {
	var rs ReadSet
	os := testOrecs(2)
	o1, o2 := os[0], os[1]
	// Re-reading a block already covered at the same wts appends nothing.
	rs.Add(o1, 10, 5)
	rs.Add(o1, 11, 5) // same orec (block), different word
	if rs.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (deduplicated)", rs.Len())
	}
	// A newer observed timestamp refreshes the entry in place.
	rs.Add(o1, 12, 8)
	if rs.Len() != 1 {
		t.Fatalf("Len = %d after refresh, want 1", rs.Len())
	}
	if e := rs.At(0); e.WTS != 8 || e.Addr != 12 {
		t.Errorf("refreshed entry = %+v, want WTS=8 Addr=12", e)
	}
	// An older timestamp (stale retry) must not regress the entry.
	rs.Add(o1, 13, 3)
	if e := rs.At(0); e.WTS != 8 {
		t.Errorf("entry regressed to WTS=%d", e.WTS)
	}
	// A second distinct orec logs its own entry.
	rs.Add(o2, 20, 6)
	if rs.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rs.Len())
	}
}

func TestReadSetGrowRehash(t *testing.T) {
	var rs ReadSet
	orecs := testOrecs(300)
	for i, o := range orecs {
		rs.Add(o, heap.Addr(i), uint64(i+1))
	}
	if rs.Len() != len(orecs) {
		t.Fatalf("Len = %d, want %d", rs.Len(), len(orecs))
	}
	// Every key still deduplicates after multiple grows.
	for i, o := range orecs {
		rs.Add(o, heap.Addr(i), uint64(i+1))
	}
	if rs.Len() != len(orecs) {
		t.Fatalf("Len = %d after re-adds, want %d", rs.Len(), len(orecs))
	}
	for i, o := range orecs {
		if e := rs.At(i); e.Orec != o || e.WTS != uint64(i+1) {
			t.Fatalf("entry %d corrupted after rehash: %+v", i, e)
		}
	}
}

// TestReadSetEpochReset: Reset invalidates the filter by epoch bump rather
// than a memset, so stale filter words from earlier transactions must read
// as empty — re-adding the same keys after a Reset must re-log them, and
// keys never re-added must be gone.
func TestReadSetEpochReset(t *testing.T) {
	var rs ReadSet
	orecs := testOrecs(200) // force several grows so idx ≫ a small txn
	for i, o := range orecs {
		rs.Add(o, heap.Addr(i), uint64(i+1))
	}
	for txn := 0; txn < 3; txn++ {
		rs.Reset()
		if rs.Len() != 0 {
			t.Fatalf("txn %d: Reset left %d entries", txn, rs.Len())
		}
		// A small transaction re-using a key from the big one: the stale
		// filter word must not satisfy the dedup probe.
		rs.Add(orecs[7], 7, 99)
		if rs.Len() != 1 {
			t.Fatalf("txn %d: Len = %d, want 1", txn, rs.Len())
		}
		if e := rs.At(0); e.Orec != orecs[7] || e.WTS != 99 {
			t.Fatalf("txn %d: entry = %+v", txn, e)
		}
		rs.Add(orecs[7], 8, 99) // and dedup within the epoch still works
		if rs.Len() != 1 {
			t.Fatalf("txn %d: dedup broken, Len = %d", txn, rs.Len())
		}
	}
}

// TestReadSetEpochWrap drives the epoch to its wrap point and checks the
// one-per-2^32-resets physical clear keeps the filter sound.
func TestReadSetEpochWrap(t *testing.T) {
	var rs ReadSet
	os := testOrecs(2)
	rs.Add(os[0], 10, 5)
	rs.f.epoch = ^uint32(0) // as if 2^32-1 resets had happened
	rs.Reset()
	if rs.f.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", rs.f.epoch)
	}
	for _, v := range rs.f.words {
		if v != 0 {
			t.Fatal("wrap did not physically clear the filter")
		}
	}
	rs.Add(os[1], 20, 7)
	if rs.Len() != 1 || rs.At(0).Orec != os[1] {
		t.Fatalf("post-wrap state: Len=%d entry=%+v", rs.Len(), rs.At(0))
	}
}

// TestRedoEpochReset is the Redo-side twin of TestReadSetEpochReset.
func TestRedoEpochReset(t *testing.T) {
	var r Redo
	for i := 0; i < 200; i++ {
		r.Put(heap.Addr(i), heap.Word(i))
	}
	for txn := 0; txn < 3; txn++ {
		r.Reset()
		if r.Len() != 0 {
			t.Fatalf("txn %d: Reset left %d entries", txn, r.Len())
		}
		if _, ok := r.Get(7); ok {
			t.Fatalf("txn %d: stale filter word satisfied Get", txn)
		}
		r.Put(7, 123)
		if v, ok := r.Get(7); !ok || v != 123 {
			t.Fatalf("txn %d: Get(7) = %d,%v", txn, v, ok)
		}
		r.Put(7, 124) // coalescing within the epoch still works
		if r.Len() != 1 {
			t.Fatalf("txn %d: Len = %d, want 1", txn, r.Len())
		}
	}
}

// TestReadSetAddAllocFree pins the steady-state read path at zero heap
// allocations: after one warm-up transaction has sized the backing arrays,
// Reset+refill must not allocate.
func TestReadSetAddAllocFree(t *testing.T) {
	var rs ReadSet
	orecs := testOrecs(128)
	fill := func() {
		for i, o := range orecs {
			rs.Add(o, heap.Addr(i), 1)
		}
	}
	fill() // warm up: grow to final size
	if n := testing.AllocsPerRun(100, func() {
		rs.Reset()
		fill()
	}); n != 0 {
		t.Errorf("steady-state ReadSet.Add allocates %.1f per transaction", n)
	}
}

// TestRedoPutAllocFree is the same guard for the write buffer.
func TestRedoPutAllocFree(t *testing.T) {
	var r Redo
	fill := func() {
		for i := 0; i < 128; i++ {
			r.Put(heap.Addr(i), heap.Word(i))
		}
	}
	fill()
	if n := testing.AllocsPerRun(100, func() {
		r.Reset()
		fill()
	}); n != 0 {
		t.Errorf("steady-state Redo.Put allocates %.1f per transaction", n)
	}
}

func TestUndoRollbackReverseOrder(t *testing.T) {
	h := heap.New(64)
	a := h.MustAlloc(1)
	var u Undo
	h.AtomicStore(a, 1)
	u.Add(a, 1) // pre-image of first write
	h.AtomicStore(a, 2)
	u.Add(a, 2) // pre-image of second write
	h.AtomicStore(a, 3)
	u.Rollback(h)
	if got := h.AtomicLoad(a); got != 1 {
		t.Errorf("rollback restored %d, want the oldest pre-image 1", got)
	}
}

func TestUndoRollbackMultipleAddrs(t *testing.T) {
	h := heap.New(64)
	base := h.MustAlloc(8)
	var u Undo
	for i := heap.Addr(0); i < 8; i++ {
		h.AtomicStore(base+i, heap.Word(i))
	}
	for i := heap.Addr(0); i < 8; i++ {
		u.Add(base+i, h.AtomicLoad(base+i))
		h.AtomicStore(base+i, 99)
	}
	u.Rollback(h)
	for i := heap.Addr(0); i < 8; i++ {
		if got := h.AtomicLoad(base + i); got != heap.Word(i) {
			t.Errorf("word %d = %d after rollback", i, got)
		}
	}
	u.Reset()
	if u.Len() != 0 {
		t.Error("Reset did not empty the log")
	}
}

func TestRedoReadYourWrites(t *testing.T) {
	var r Redo
	if _, ok := r.Get(5); ok {
		t.Fatal("empty redo log claims a value")
	}
	r.Put(5, 100)
	r.Put(6, 200)
	r.Put(5, 101) // overwrite coalesces
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (coalesced)", r.Len())
	}
	if v, ok := r.Get(5); !ok || v != 101 {
		t.Errorf("Get(5) = %d,%v", v, ok)
	}
	if v, ok := r.Get(6); !ok || v != 200 {
		t.Errorf("Get(6) = %d,%v", v, ok)
	}
}

func TestRedoWriteBack(t *testing.T) {
	h := heap.New(64)
	base := h.MustAlloc(4)
	var r Redo
	r.Put(base, 1)
	r.Put(base+1, 2)
	r.Put(base, 3)
	r.WriteBack(h)
	if h.AtomicLoad(base) != 3 || h.AtomicLoad(base+1) != 2 {
		t.Errorf("write-back produced (%d,%d)", h.AtomicLoad(base), h.AtomicLoad(base+1))
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("Reset did not clear entries")
	}
	if _, ok := r.Get(base); ok {
		t.Error("Reset did not clear index")
	}
}

func TestRedoModel(t *testing.T) {
	// Property: Redo behaves as a map with last-write-wins.
	prop := func(ops []struct {
		A uint8
		V uint16
	}) bool {
		var r Redo
		model := map[heap.Addr]heap.Word{}
		for _, op := range ops {
			a, v := heap.Addr(op.A%32), heap.Word(op.V)
			r.Put(a, v)
			model[a] = v
		}
		if r.Len() != len(model) {
			return false
		}
		for a, v := range model {
			got, ok := r.Get(a)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAcquiredReleaseAndRestore(t *testing.T) {
	os := testOrecs(2)
	o1, o2 := os[0], os[1]
	o1.Owner().Store(orec.PackOwned(3))
	o2.Owner().Store(orec.PackOwned(3))
	var ac Acquired
	ac.Add(o1)
	ac.Add(o2)
	if ac.Len() != 2 || ac.At(0) != o1 || ac.At(1) != o2 {
		t.Fatalf("Len = %d, want o1 and o2 in acquisition order", ac.Len())
	}
	// Commit and abort release alike, at a timestamp the caller picks (an
	// abort's is a fresh clock tick): nothing restores an earlier word.
	ac.ReleaseAll(77)
	if orec.WTS(o1.Owner().Load()) != 77 || orec.WTS(o2.Owner().Load()) != 77 {
		t.Error("ReleaseAll did not publish the commit timestamp")
	}
	if orec.IsOwned(o1.Owner().Load()) {
		t.Error("orec still owned after release")
	}
}
