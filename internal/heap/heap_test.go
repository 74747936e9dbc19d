package heap

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocBasics(t *testing.T) {
	h := New(100)
	a, err := h.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if a == Nil {
		t.Fatal("Alloc returned the nil address")
	}
	b, err := h.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if b < a+10 {
		t.Errorf("allocations overlap: %d then %d", a, b)
	}
}

func TestAllocExhaustion(t *testing.T) {
	// Quantum 2: block 0 is nil, 14 words usable; Alloc(11) occupies 12.
	h := New(16)
	if _, err := h.Alloc(11); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(10); err == nil {
		t.Error("expected out-of-memory error")
	}
	// A smaller request that still fits must succeed.
	if _, err := h.Alloc(1); err != nil {
		t.Errorf("small alloc after failure: %v", err)
	}
	// The last block is gone now: even one word no longer fits.
	if _, err := h.Alloc(1); err == nil {
		t.Error("expected out-of-memory error once every block is handed out")
	}
}

func TestAllocRejectsNonPositive(t *testing.T) {
	h := New(16)
	if _, err := h.Alloc(0); err == nil {
		t.Error("Alloc(0) should fail")
	}
	if _, err := h.Alloc(-3); err == nil {
		t.Error("Alloc(-3) should fail")
	}
}

func TestAllocZeroed(t *testing.T) {
	h := New(64)
	a := h.MustAlloc(8)
	for i := Addr(0); i < 8; i++ {
		if h.Load(a+i) != 0 {
			t.Errorf("word %d not zeroed", i)
		}
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	h := New(256)
	a := h.MustAlloc(128)
	prop := func(off uint8, w uint64) bool {
		addr := a + Addr(off)%128
		h.Store(addr, Word(w))
		if h.Load(addr) != Word(w) {
			return false
		}
		h.AtomicStore(addr, Word(w)+1)
		return h.AtomicLoad(addr) == Word(w)+1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAlloc(t *testing.T) {
	h := New(1 << 16)
	const workers = 8
	const per = 100
	got := make([][]Addr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				got[w] = append(got[w], h.MustAlloc(7))
			}
		}(w)
	}
	wg.Wait()
	// All allocations must be disjoint.
	seen := map[Addr]bool{}
	for _, as := range got {
		for _, a := range as {
			for i := Addr(0); i < 7; i++ {
				if seen[a+i] {
					t.Fatalf("word %d allocated twice", a+i)
				}
				seen[a+i] = true
			}
		}
	}
}

func TestMinimumSize(t *testing.T) {
	for _, q := range []int{1, 2, 4} {
		h := NewQuantum(0, q)
		if h.Size() < 2*q {
			t.Errorf("quantum %d: Size = %d, want ≥ %d", q, h.Size(), 2*q)
		}
		if h.InUse() != q {
			t.Errorf("quantum %d: InUse = %d, want %d (nil block reserved)", q, h.InUse(), q)
		}
		if a := h.MustAlloc(1); a != Addr(q) {
			t.Errorf("quantum %d: first extent at %d, want %d", q, a, q)
		}
	}
	if New(0).Quantum() != DefaultQuantum {
		t.Errorf("New's quantum = %d, want %d", New(0).Quantum(), DefaultQuantum)
	}
	if got := NewQuantum(64, 3).Quantum(); got != 4 {
		t.Errorf("quantum 3 rounds to %d, want 4", got)
	}
}

// TestQuantumAlignment: whatever sizes are asked for, every extent starts on
// a quantum boundary, extents never share a quantum, and the accounting
// counts rounded sizes.
func TestQuantumAlignment(t *testing.T) {
	for _, q := range []int{1, 2, 4, 8} {
		h := NewQuantum(1<<12, q)
		owner := map[Addr]int{} // quantum index → extent
		var want uint64 = uint64(q)
		for i, n := range []int{1, 2, 3, 5, 1, 7, 4, 16, 17, 1} {
			a := h.MustAlloc(n)
			if int(a)%q != 0 {
				t.Fatalf("quantum %d: Alloc(%d) = %d, not aligned", q, n, a)
			}
			for w := a; w < a+Addr(n); w++ {
				if prev, taken := owner[w/Addr(q)]; taken && prev != i {
					t.Fatalf("quantum %d: extents %d and %d share block %d", q, prev, i, w/Addr(q))
				}
				owner[w/Addr(q)] = i
			}
			want += uint64((n + q - 1) / q * q)
		}
		if got := h.Stats().BumpWords; got != want {
			t.Errorf("quantum %d: BumpWords = %d, want %d", q, got, want)
		}
	}
}

// TestFreeListClassesByRoundedSize: a freed 3-word extent of a 2-word-
// quantum heap is a 4-word extent, so it serves Alloc(3) and Alloc(4) alike
// and never an Alloc(2); the counters move by the rounded size.
func TestFreeListClassesByRoundedSize(t *testing.T) {
	h := NewQuantum(256, 2)
	a := h.MustAlloc(3)
	for i := Addr(0); i < 3; i++ {
		h.Store(a+i, 7)
	}
	h.Free(a, 3)
	if st := h.Stats(); st.FreeWords != 4 || st.FreedWords != 4 {
		t.Fatalf("after Free(_, 3): FreeWords %d FreedWords %d, want 4 4", st.FreeWords, st.FreedWords)
	}
	if b := h.MustAlloc(2); b == a {
		t.Fatal("Alloc(2) took the 4-word extent")
	}
	b := h.MustAlloc(4)
	if b != a {
		t.Fatalf("Alloc(4) = %d, want the freed extent %d", b, a)
	}
	for i := Addr(0); i < 4; i++ {
		if h.Load(b+i) != 0 {
			t.Errorf("reused word %d not zeroed", i)
		}
	}
	if st := h.Stats(); st.FreeWords != 0 || st.ReusedWords != 4 {
		t.Errorf("after reuse: FreeWords %d ReusedWords %d, want 0 4", st.FreeWords, st.ReusedWords)
	}
	// Oversized extents go through the overflow list with the same rule.
	big := h.MustAlloc(33)
	h.Free(big, 33)
	if c := h.MustAlloc(34); c != big {
		t.Errorf("Alloc(34) = %d, want the freed 33-word extent %d", c, big)
	}
}

func TestFreeRejectsMisaligned(t *testing.T) {
	h := NewQuantum(64, 2)
	a := h.MustAlloc(4)
	defer func() {
		if recover() == nil {
			t.Error("Free of a misaligned address did not panic")
		}
	}()
	h.Free(a+1, 1)
}
