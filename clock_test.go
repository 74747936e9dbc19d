package stm

import "testing"

// TestClockTickPerWriterCommit pins the global version clock's contract
// (§II-A): every writer commit performs exactly one clock RMW and nothing
// else does, so write timestamps are unique and totally ordered — the
// premise of SkipCommitValidation and of the privatization-fence proofs
// (CORRECTNESS.md §13).
func TestClockTickPerWriterCommit(t *testing.T) {
	const txns = 50
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		a := s.MustAlloc(1)
		th := s.MustNewThread()
		for i := 0; i < txns; i++ {
			if err := th.Atomic(func(tx *Tx) { tx.Store(a, tx.Load(a)+1) }); err != nil {
				t.Fatalf("txn %d: %v", i, err)
			}
			if err := th.Atomic(func(tx *Tx) { _ = tx.Load(a) }); err != nil {
				t.Fatalf("read-only txn %d: %v", i, err)
			}
		}
		if got := s.DirectLoad(a); got != txns {
			t.Fatalf("counter = %d, want %d", got, txns)
		}
		st := s.Stats()
		if st.Aborts != 0 {
			t.Fatalf("%d aborts in a single-thread run", st.Aborts)
		}
		if st.ClockTicks != txns {
			t.Errorf("ClockTicks = %d, want %d (one per writer commit)", st.ClockTicks, txns)
		}
	})
}

// TestCommitPathAllocFree pins the allocation discipline of the commit path:
// a steady-state writer commit allocates nothing.
func TestCommitPathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		alg  Algorithm
	}{
		{"tl2/gv1", TL2},
		{"ord/gv1", Ord},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSTM(t, tc.alg)
			a := s.MustAlloc(1)
			th := s.MustNewThread()
			body := func(tx *Tx) { tx.Store(a, tx.Load(a)+1) }
			if err := th.Atomic(body); err != nil { // warm up logs
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(200, func() {
				if err := th.Atomic(body); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("commit path allocates %.1f per txn, want 0", n)
			}
		})
	}
}
