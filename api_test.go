package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privstm/internal/core"
)

func TestAlgorithmStrings(t *testing.T) {
	want := map[Algorithm]string{
		TL2: "TL2", Ord: "Ord", Val: "Val",
		PVRBase: "pvrBase", PVRCAS: "pvrCAS", PVRStore: "pvrStore",
		PVRWriterOnly: "pvrWriterOnly", PVRHybrid: "pvrHybrid",
	}
	for alg, s := range want {
		if alg.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(alg), alg.String(), s)
		}
		back, err := ParseAlgorithm(s)
		if err != nil || back != alg {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", s, back, err)
		}
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm should still format")
	}
	if _, err := ParseAlgorithm("nosuch"); err == nil {
		t.Error("ParseAlgorithm should reject unknown labels")
	}
}

// TestAlgorithmPolicies pins each algorithm to its tuple of engine choices
// (README.md's algorithm table), and pvrStore to pvrCAS in everything but the
// label.
func TestAlgorithmPolicies(t *testing.T) {
	const (
		redo, undo = core.LogRedo, core.LogUndo
		never      = core.VisibleNever
		atBegin    = core.VisibleAtBegin
		firstWrite = core.VisibleAtFirstWrite
		threshold  = core.VisiblePastThreshold
		none       = core.PostNone
		valFence   = core.PostValidationFence
		privFence  = core.PostPrivatizationFence
	)
	want := map[Algorithm]core.Policy{
		TL2:           {Label: "TL2", Log: redo, Visible: never, Post: none},
		Ord:           {Label: "Ord", Log: redo, Visible: never, Poll: true, Ordered: true, Post: none},
		Val:           {Label: "Val", Log: redo, Visible: never, Poll: true, Post: valFence},
		PVRBase:       {Label: "pvrBase", Log: undo, Visible: atBegin, Post: privFence},
		PVRCAS:        {Label: "pvrCAS", Log: undo, Visible: atBegin, Grace: true, Post: privFence},
		PVRStore:      {Label: "pvrStore", Log: undo, Visible: atBegin, Grace: true, Post: privFence},
		PVRWriterOnly: {Label: "pvrWriterOnly", Log: undo, Visible: firstWrite, Grace: true, Poll: true, Post: privFence},
		PVRHybrid:     {Label: "pvrHybrid", Log: redo, Visible: threshold, Grace: true, Poll: true, Ordered: true, Post: privFence},
	}
	if len(want) != len(Algorithms) {
		t.Fatalf("%d algorithms, %d tuples", len(Algorithms), len(want))
	}
	for _, alg := range Algorithms {
		s := MustNew(Config{Algorithm: alg, HeapWords: 1 << 10, OrecCount: 1 << 6})
		if s.engine != want[alg] {
			t.Errorf("%v runs %+v, want %+v", alg, s.engine, want[alg])
		}
		if s.engine.Name() != alg.String() {
			t.Errorf("%v runs under the label %q", alg, s.engine.Name())
		}
	}
	store, cas := want[PVRStore], want[PVRCAS]
	store.Label = cas.Label
	if store != cas {
		t.Errorf("pvrStore %+v differs from pvrCAS %+v beyond the label", want[PVRStore], cas)
	}
}

func TestSafeClassification(t *testing.T) {
	for _, alg := range Algorithms {
		want := alg != TL2
		if alg.Safe() != want {
			t.Errorf("%v.Safe() = %v, want %v", alg, alg.Safe(), want)
		}
	}
}

func TestAlgorithmsListMatchesPaperOrder(t *testing.T) {
	want := []Algorithm{TL2, Ord, Val, PVRBase, PVRCAS, PVRStore, PVRWriterOnly, PVRHybrid}
	if len(Algorithms) != len(want) {
		t.Fatalf("Algorithms has %d entries", len(Algorithms))
	}
	for i := range want {
		if Algorithms[i] != want[i] {
			t.Errorf("Algorithms[%d] = %v, want %v", i, Algorithms[i], want[i])
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Algorithm: Algorithm(42)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := New(Config{Algorithm: PVRBase, MaxThreads: 1 << 30}); err == nil {
		t.Error("absurd MaxThreads accepted")
	}
	// A negative thread count must be an error, not a makeslice panic; one
	// past the slot tracker's capacity must be an error, not a silent
	// switch to another tracker.
	for _, n := range []int{-1, 65535} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("New with MaxThreads %d panicked: %v", n, r)
				}
			}()
			if _, err := New(Config{Algorithm: PVRStore, MaxThreads: n}); err == nil {
				t.Errorf("MaxThreads %d accepted", n)
			}
		}()
	}
	if _, err := New(Config{Algorithm: PVRStore, HeapWords: 64, MaxThreads: 65534}); err != nil {
		t.Errorf("MaxThreads 65534 (the slot tracker's capacity) rejected: %v", err)
	}
}

func TestThreadLimit(t *testing.T) {
	s := MustNew(Config{Algorithm: TL2, HeapWords: 64, MaxThreads: 2})
	if _, err := s.NewThread(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewThread(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewThread(); err == nil {
		t.Error("thread limit not enforced")
	}
}

func TestAllocErrors(t *testing.T) {
	s := MustNew(Config{Algorithm: TL2, HeapWords: 8})
	if _, err := s.Alloc(100); err == nil {
		t.Error("oversized Alloc accepted")
	}
	if a, err := s.Alloc(3); err != nil || a == Nil {
		t.Errorf("Alloc(3) = %v, %v", a, err)
	}
}

func TestAddrRoundTrip(t *testing.T) {
	s := MustNew(Config{Algorithm: PVRStore, HeapWords: 1 << 10})
	th := s.MustNewThread()
	p := s.MustAlloc(1)
	target := s.MustAlloc(4)
	if err := th.Atomic(func(tx *Tx) {
		tx.StoreAddr(p, target)
		if got := tx.LoadAddr(p); got != target {
			t.Errorf("LoadAddr = %v, want %v", got, target)
		}
	}); err != nil {
		t.Fatal(err)
	}
	closeAll(t, th)
	if got := Addr(peek(t, s, p)); got != target {
		t.Errorf("after commit, pointer = %v", got)
	}
}

func TestRetryReexecutes(t *testing.T) {
	// Tx.Retry aborts and re-runs the body; the contention manager's
	// backoff lets another goroutine make the condition true.
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		flag := s.MustAlloc(1)
		th := s.MustNewThread()
		setter := s.MustNewThread()
		var setterDone sync.WaitGroup
		setterDone.Add(1)
		go func() {
			defer setterDone.Done()
			time.Sleep(5 * time.Millisecond)
			_ = setter.Atomic(func(tx *Tx) { tx.Store(flag, 1) })
		}()
		attempts := 0
		if err := th.Atomic(func(tx *Tx) {
			attempts++
			if tx.Load(flag) == 0 {
				tx.Retry()
			}
		}); err != nil {
			t.Fatal(err)
		}
		if attempts < 2 {
			t.Errorf("attempts = %d, want ≥ 2", attempts)
		}
		setterDone.Wait()
	})
}

// TestOpacityPairs asserts that no transaction body ever observes two
// locations mid-update: writers always store the same value to both words.
func TestOpacityPairs(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		a := s.MustAlloc(2)
		var stop atomic.Bool
		var torn atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			th := s.MustNewThread()
			wg.Add(1)
			go func(v Word) {
				defer wg.Done()
				for i := 0; i < 400; i++ {
					_ = th.Atomic(func(tx *Tx) {
						tx.Store(a, v)
						tx.Store(a+1, v)
					})
					v += 2
				}
			}(Word(w + 1))
		}
		for r := 0; r < 2; r++ {
			th := s.MustNewThread()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					_ = th.Atomic(func(tx *Tx) {
						x := tx.Load(a)
						y := tx.Load(a + 1)
						if x != y {
							torn.Add(1)
						}
					})
				}
			}()
		}
		time.Sleep(50 * time.Millisecond)
		stop.Store(true)
		wg.Wait()
		if torn.Load() != 0 {
			t.Errorf("%v: %d torn observations (opacity violated)", alg, torn.Load())
		}
	})
}

func TestStatsExposed(t *testing.T) {
	s := MustNew(Config{Algorithm: PVRBase, HeapWords: 1 << 10})
	th := s.MustNewThread()
	a := s.MustAlloc(1)
	for i := 0; i < 10; i++ {
		_ = th.Atomic(func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
	}
	st := th.Stats()
	if st.Commits != 10 || st.WriterCommits != 10 {
		t.Errorf("stats = %+v", st)
	}
	_ = th.Atomic(func(tx *Tx) { _ = tx.Load(a) })
	if th.Stats().ReadOnlyCommits != 1 {
		t.Errorf("ReadOnlyCommits = %d", th.Stats().ReadOnlyCommits)
	}
}

func TestDirectAndAtomicAccess(t *testing.T) {
	s := MustNew(Config{Algorithm: PVRStore, HeapWords: 1 << 10})
	a := s.MustAlloc(1)
	if err := s.Quiescent(func(h Private) {
		h.Store(a, 5)
		if h.Load(a) != 5 {
			t.Error("Private Load/Store round trip failed")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteSkew documents the single-lock-atomicity guarantee: unlike
// snapshot isolation, serializable STMs must not admit write skew.
func TestWriteSkew(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		x := s.MustAlloc(1)
		y := s.MustAlloc(1)
		var writers, audit sync.WaitGroup
		var stop atomic.Bool
		var violations atomic.Int64
		auditor := s.MustNewThread()
		audit.Add(1)
		go func() {
			defer audit.Done()
			for !stop.Load() {
				_ = auditor.Atomic(func(tx *Tx) {
					if tx.Load(x)+tx.Load(y) > 1 {
						violations.Add(1)
					}
				})
			}
		}()
		for i := 0; i < 2; i++ {
			th := s.MustNewThread()
			mine, other := x, y
			if i == 1 {
				mine, other = y, x
			}
			writers.Add(1)
			go func() {
				defer writers.Done()
				for j := 0; j < 300; j++ {
					_ = th.Atomic(func(tx *Tx) {
						// invariant to preserve: x + y ≤ 1
						if tx.Load(mine)+tx.Load(other) == 0 {
							tx.Store(mine, 1)
						}
					})
					_ = th.Atomic(func(tx *Tx) { tx.Store(mine, 0) })
				}
			}()
		}
		writers.Wait()
		stop.Store(true)
		audit.Wait()
		if violations.Load() > 0 {
			t.Errorf("write skew admitted %d times", violations.Load())
		}
	})
}

func TestSTMAggregateStats(t *testing.T) {
	s := newSTM(t, PVRCAS)
	var wg sync.WaitGroup
	a := s.MustAlloc(1)
	for i := 0; i < 3; i++ {
		th := s.MustNewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = th.Atomic(func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
			}
		}()
	}
	wg.Wait()
	agg := s.Stats()
	if agg.Commits != 150 {
		t.Errorf("aggregate commits = %d, want 150", agg.Commits)
	}
	if agg.WriterCommits != 150 {
		t.Errorf("aggregate writer commits = %d", agg.WriterCommits)
	}
}
