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
	if e := rs.At(0); e.Orec != o1 || e.WTS != 5 {
		t.Errorf("entry 0 = %+v", e)
	}
	rs.Reset()
	if rs.Len() != 0 {
		t.Error("Reset did not empty the set")
	}
	rs.Add(o2, 30, 9)
	if e := rs.At(0); e.Orec != o2 || e.WTS != 9 {
		t.Errorf("entry after reuse = %+v", e)
	}
}

// readLog mirrors a ReadSet with the entries it must hold: one per Add, in
// order, since the last reset.
type readLog struct {
	t    *testing.T
	rs   ReadSet
	want []ReadEntry
}

func (l *readLog) add(o *orec.Orec, wts uint64) {
	l.rs.Add(o, heap.Addr(len(l.want)), wts)
	l.want = append(l.want, ReadEntry{Orec: o, WTS: wts})
}

func (l *readLog) reset() {
	l.rs.Reset()
	l.want = l.want[:0]
}

func (l *readLog) check(when string) {
	l.t.Helper()
	if l.rs.Len() != len(l.want) {
		l.t.Fatalf("%s: Len = %d, want %d (one per Add)", when, l.rs.Len(), len(l.want))
	}
	for i, w := range l.want {
		if e := l.rs.At(i); *e != w {
			l.t.Fatalf("%s: entry %d = %+v, want %+v", when, i, *e, w)
		}
	}
}

// TestReadSetAppendOnly: every Add appends one entry, in order — a re-read
// of a logged block, at the same, a newer or an older timestamp, is logged
// again rather than merged — and Len counts the Adds since the last Reset.
func TestReadSetAppendOnly(t *testing.T) {
	l := &readLog{t: t}
	orecs := testOrecs(300)
	for txn := 0; txn < 3; txn++ {
		l.reset()
		l.check("after Reset")
		l.add(orecs[0], 5)
		l.add(orecs[0], 5) // same block, same timestamp
		l.add(orecs[1], 6)
		l.add(orecs[0], 8) // newer timestamp: a new entry, the old one kept
		l.add(orecs[0], 3) // older timestamp: logged as seen
		l.check("re-reads")
		for i, o := range orecs { // past several backing-array growths
			l.add(o, uint64(i+1))
		}
		for i := len(orecs) - 1; i >= 0; i-- {
			l.add(orecs[i], uint64(i+1))
		}
		l.check("after growth")
	}
}

// TestReadSetDedup: the read log does not deduplicate per orec (CORRECTNESS
// §8) — a second read of a block, even of another word at the same
// timestamp, appends an entry, and a newer or older timestamp neither
// refreshes nor regresses the earlier entry.
func TestReadSetDedup(t *testing.T) {
	l := &readLog{t: t}
	orecs := testOrecs(2)
	l.add(orecs[0], 5)
	l.add(orecs[0], 5) // same orec (block), different word
	l.check("same timestamp")
	l.add(orecs[0], 8)
	l.check("newer timestamp")
	l.add(orecs[0], 3)
	l.check("older timestamp")
	l.add(orecs[1], 6)
	l.check("second orec")
}

// TestReadSetGrowRehash: growing the backing array keeps every entry, in
// order, and re-adding every orec after several growths appends each once
// more.
func TestReadSetGrowRehash(t *testing.T) {
	l := &readLog{t: t}
	orecs := testOrecs(300)
	for i, o := range orecs {
		l.add(o, uint64(i+1))
	}
	l.check("after growth")
	for i, o := range orecs {
		l.add(o, uint64(i+1))
	}
	l.check("after re-adds")
}

// TestReadSetEpochReset: Reset empties the log, so a small transaction
// after a large one holds only its own reads — a block the large one read
// is logged afresh, and a re-read within the transaction appends again.
func TestReadSetEpochReset(t *testing.T) {
	l := &readLog{t: t}
	orecs := testOrecs(200)
	for i, o := range orecs {
		l.add(o, uint64(i+1))
	}
	for txn := 0; txn < 3; txn++ {
		l.reset()
		l.check("after Reset")
		l.add(orecs[7], 99)
		l.check("first read after Reset")
		l.add(orecs[7], 99)
		l.check("re-read after Reset")
	}
}

// TestRedoEpochReset: Reset invalidates the filter by epoch bump rather
// than a memset, so stale filter words from earlier transactions must read
// as empty — a Get of a key from an earlier transaction must miss, and a
// re-Put must log it afresh.
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

// TestRedoEpochWrap drives the filter's epoch to its wrap point and checks
// the one-per-2^32-resets physical clear keeps the filter sound.
func TestRedoEpochWrap(t *testing.T) {
	var r Redo
	r.Put(10, 5)
	r.f.epoch = ^uint32(0) // as if 2^32-1 resets had happened
	r.Reset()
	if r.f.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", r.f.epoch)
	}
	for _, v := range r.f.words {
		if v != 0 {
			t.Fatal("wrap did not physically clear the filter")
		}
	}
	if _, ok := r.Get(10); ok {
		t.Fatal("a pre-wrap entry survived the clear")
	}
	r.Put(20, 7)
	if v, ok := r.Get(20); r.Len() != 1 || !ok || v != 7 {
		t.Fatalf("post-wrap state: Len=%d Get(20)=%d,%v", r.Len(), v, ok)
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
