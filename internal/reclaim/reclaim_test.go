package reclaim

import (
	"sync/atomic"
	"testing"

	"privstm/internal/heap"
)

// epochSource is a settable watermark stand-in: ts is the oldest incomplete
// begin, any whether one exists. Atomic so tests may move it while a
// collector runs.
type epochSource struct {
	ts  atomic.Uint64
	any atomic.Bool
}

func (e *epochSource) oldest() (uint64, bool) { return e.ts.Load(), e.any.Load() }

func (e *epochSource) set(ts uint64, any bool) {
	e.ts.Store(ts)
	e.any.Store(any)
}

func newTestReclaimer(cfg Config) (*heap.Heap, *epochSource, *Reclaimer) {
	h := heap.New(1 << 12)
	e := &epochSource{}
	if cfg.Threads == 0 {
		cfg.Threads = 2
	}
	return h, e, New(h, e.oldest, cfg)
}

// TestRetireBlocksUntilEpoch is the core safety property in miniature: an
// extent retired at stamp R stays quarantined while a transaction with
// begin < R is incomplete, and frees once the watermark passes R.
func TestRetireBlocksUntilEpoch(t *testing.T) {
	h, e, r := newTestReclaimer(Config{CollectEvery: 1 << 30})
	a := h.MustAlloc(2)

	e.set(5, true) // an incomplete transaction began at 5
	r.Retire(0, a, 2, 10)
	if freed := r.Drain(); freed != 0 {
		t.Fatalf("freed %d extents with oldest begin 5 < stamp 10, want 0", freed)
	}
	if st := r.Stats(); st.Limbo != 1 {
		t.Fatalf("limbo = %d, want 1", st.Limbo)
	}

	e.set(10, true) // the old transaction finished; oldest now began at 10
	if freed := r.Drain(); freed != 1 {
		t.Fatalf("freed %d extents with oldest begin 10 ≥ stamp 10, want 1", freed)
	}
	if st := r.Stats(); st.Limbo != 0 || st.Freed != 1 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestQuiescentFreesImmediately: with nothing in flight the stamp is
// irrelevant — the extent frees on the first pass.
func TestQuiescentFreesImmediately(t *testing.T) {
	h, e, r := newTestReclaimer(Config{CollectEvery: 1 << 30})
	a := h.MustAlloc(3)
	e.set(0, false)
	r.Retire(1, a, 3, 1<<40)
	if freed := r.Drain(); freed != 1 {
		t.Fatalf("freed %d, want 1 (no incomplete transactions)", freed)
	}
}

// TestAmortizedCollect: the CollectEvery'th retire on a shard runs a pass
// without any explicit Drain.
func TestAmortizedCollect(t *testing.T) {
	h, e, r := newTestReclaimer(Config{CollectEvery: 2})
	e.set(0, false)
	a := h.MustAlloc(1)
	b := h.MustAlloc(1)
	r.Retire(0, a, 1, 1)
	if st := r.Stats(); st.Freed != 0 {
		t.Fatalf("freed %d after 1 retire (CollectEvery=2), want 0", st.Freed)
	}
	r.Retire(0, b, 1, 1)
	if st := r.Stats(); st.Freed != 2 || st.Limbo != 0 {
		t.Fatalf("after amortized pass: %+v, want Freed=2 Limbo=0", st)
	}
}

// TestPoisonSentinel: poison mode leaves quarantined words untouched (an
// old-snapshot reader may still legitimately load them), writes the
// sentinel the moment the epoch check releases the extent, and reuse hands
// the words back zeroed.
func TestPoisonSentinel(t *testing.T) {
	h, e, r := newTestReclaimer(Config{CollectEvery: 1 << 30, Poison: true})
	a := h.MustAlloc(2)
	h.AtomicStore(a, 42)
	h.AtomicStore(a+1, 43)

	e.set(5, true) // a pre-retire transaction is still incomplete
	r.Retire(0, a, 2, 10)
	r.Drain() // blocked: quarantined words must keep their committed values
	if w := h.AtomicLoad(a); w != 42 {
		t.Fatalf("quarantined word = %#x, want committed value 42 (poison may not land before the epoch)", w)
	}

	e.set(0, false)
	if freed := r.Drain(); freed != 1 {
		t.Fatalf("freed %d, want 1", freed)
	}
	for i := heap.Addr(0); i < 2; i++ {
		if w := h.AtomicLoad(a + i); w != Poison {
			t.Fatalf("word %d = %#x after collect, want poison %#x", i, w, Poison)
		}
	}
	got := h.MustAlloc(2)
	if got != a {
		t.Fatalf("realloc = %d, want recycled extent %d", got, a)
	}
	for i := heap.Addr(0); i < 2; i++ {
		if w := h.AtomicLoad(a + i); w != 0 {
			t.Fatalf("word %d = %#x after reuse, want 0", i, w)
		}
	}
}

// TestHeapExactFitReuse: the heap free list recycles exact (quantum-rounded)
// sizes and falls back to the bump pointer for sizes it has never seen.
func TestHeapExactFitReuse(t *testing.T) {
	h, e, r := newTestReclaimer(Config{CollectEvery: 1})
	e.set(0, false)
	a := h.MustAlloc(4)
	before := h.InUse()
	r.Retire(0, a, 4, 1)
	// The amortized collect stocked the shard; Drain moves the stock onto
	// the heap free list, where plain MustAlloc can see it.
	r.Drain()
	if got := h.MustAlloc(2); got == a {
		t.Fatalf("2-word alloc reused the 4-word extent %d", got)
	}
	if got := h.MustAlloc(4); got != a {
		t.Fatalf("4-word alloc = %d, want recycled %d", got, a)
	}
	hs := h.Stats()
	if hs.ReusedWords != 4 || hs.FreedWords != 4 || hs.FreeWords != 0 {
		t.Fatalf("heap stats %+v, want Reused=4 Freed=4 Free=0", hs)
	}
	if h.InUse() != before+2 {
		t.Fatalf("bump advanced %d words, want 2 (only the non-matching alloc)", h.InUse()-before)
	}
}

// TestRetireSteadyStateAllocates0 pins the acceptance criterion: the
// retire→collect→reuse cycle — through the owner-only front path the STM
// threads use — allocates nothing once slice capacities have warmed up.
func TestRetireSteadyStateAllocates0(t *testing.T) {
	h, e, r := newTestReclaimer(Config{CollectEvery: 4})
	e.set(0, false)
	cycle := func() {
		a, ok := r.AllocLocal(0, 2)
		if !ok {
			a = h.MustAlloc(2)
		}
		r.RetireLocal(0, a, 2, 1)
	}
	// Warm up every slice: front pending/ready, shard limbo/ready stacks.
	for i := 0; i < 64; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("steady-state retire cycle allocated %v times per run, want 0", n)
	}
}

// TestLocalFrontFlush: extents buffered on a thread's front are invisible
// to cross-thread accounting until Flush publishes them; an extent whose
// epoch has not arrived lands quarantined on the shard (publish's
// direct-clear must not release it), and a later Drain frees it once the
// watermark passes.
func TestLocalFrontFlush(t *testing.T) {
	h, e, r := newTestReclaimer(Config{CollectEvery: 1 << 30})
	e.set(5, true) // an incomplete transaction began at 5
	a := h.MustAlloc(2)
	r.RetireLocal(0, a, 2, 10)
	if st := r.Stats(); st.Retires != 0 || st.Limbo != 0 {
		t.Fatalf("front-buffered retire already visible: %+v", st)
	}
	if freed := r.Drain(); freed != 0 {
		t.Fatalf("Drain saw %d extents that were never published", freed)
	}
	r.Flush(0)
	if st := r.Stats(); st.Retires != 1 || st.Limbo != 1 || st.Freed != 0 {
		t.Fatalf("after Flush: %+v, want Retires=1 Limbo=1 Freed=0", st)
	}
	e.set(10, true) // the old transaction finished
	if freed := r.Drain(); freed != 1 {
		t.Fatalf("Drain freed %d, want 1", freed)
	}
	if got := h.MustAlloc(2); got != a {
		t.Fatalf("realloc = %d, want drained extent %d", got, a)
	}
}

// TestPublishDirectClear: a quiescent publish clears the whole batch into
// the owner's ready cache without the extents ever visiting the shard's
// limbo list — Alloc serves them back immediately.
func TestPublishDirectClear(t *testing.T) {
	h, e, r := newTestReclaimer(Config{CollectEvery: 1 << 30})
	e.set(0, false)
	a := h.MustAlloc(2)
	r.RetireLocal(0, a, 2, 1)
	r.Flush(0)
	if st := r.Stats(); st.Retires != 1 || st.Freed != 1 || st.Limbo != 0 {
		t.Fatalf("after quiescent Flush: %+v, want Retires=1 Freed=1 Limbo=0", st)
	}
	got, ok := r.AllocLocal(0, 2)
	if !ok || got != a {
		t.Fatalf("AllocLocal = %d,%v, want direct-cleared extent %d", got, ok, a)
	}
}

// TestAllocLocalRecyclesOwnRetires: the owner front's alloc path serves the
// thread's own epoch-cleared retires without any Drain, and the words come
// back unzeroed (malloc semantics — documented on AllocLocal).
func TestAllocLocalRecyclesOwnRetires(t *testing.T) {
	h, e, r := newTestReclaimer(Config{CollectEvery: 1})
	e.set(0, false)
	addrs := make(map[heap.Addr]bool)
	// localBatch retires force a publish + collect, stocking the shard.
	for i := 0; i < 16; i++ {
		a := h.MustAlloc(2)
		h.AtomicStore(a, 7) // dirty the extent
		addrs[a] = true
		r.RetireLocal(0, a, 2, 1)
	}
	got, ok := r.AllocLocal(0, 2)
	if !ok {
		t.Fatal("AllocLocal found nothing after a published batch cleared")
	}
	if !addrs[got] {
		t.Fatalf("AllocLocal returned %d, not one of the retired extents", got)
	}
	if w := h.AtomicLoad(got); w != 7 {
		t.Fatalf("recycled word = %#x, want the stale 7 (AllocLocal does not zero)", w)
	}
	// A size switch returns the stale cache instead of stranding it.
	if _, ok := r.AllocLocal(0, 3); ok {
		t.Fatal("AllocLocal(3) succeeded with only 2-word extents stocked")
	}
	r.Flush(0)
	if freed := r.Drain(); freed != 0 {
		t.Fatalf("everything was already cleared; Drain freed %d more", freed)
	}
	if hs := h.Stats(); hs.FreeWords == 0 {
		t.Fatal("drained stock never reached the heap free list")
	}
}

func BenchmarkRetireCollectReuse(b *testing.B) {
	h, e, r := newTestReclaimer(Config{})
	e.set(0, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, ok := r.AllocLocal(0, 2)
		if !ok {
			a = h.MustAlloc(2)
		}
		r.RetireLocal(0, a, 2, 1)
	}
}
