// Thread-lifecycle tests: Thread.Close must return the registry slot for
// reuse (a pool that churns workers stays within MaxThreads) and flush the
// per-thread reclaim front (retired extents become visible to DrainReclaim
// instead of stranding forever — the historical leak).
package stm_test

import (
	"testing"
	"time"

	stm "privstm"
)

// TestThreadCloseSlotReuse churns far more workers through a small registry
// than MaxThreads allows concurrently. Before Close existed the 9th
// NewThread failed forever.
func TestThreadCloseSlotReuse(t *testing.T) {
	s, err := stm.New(stm.Config{Algorithm: stm.PVRStore, HeapWords: 1 << 14, OrecCount: 1 << 8, MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	a := s.MustAlloc(1)
	const rounds = 25
	for round := 0; round < rounds; round++ {
		// Fill the registry completely, run a txn on each, release all.
		ths := make([]*stm.Thread, 8)
		for i := range ths {
			th, err := s.NewThread()
			if err != nil {
				t.Fatalf("round %d worker %d: NewThread: %v (slot not reused)", round, i, err)
			}
			ths[i] = th
			if err := th.Atomic(func(tx *stm.Tx) { tx.Store(a, tx.Load(a)+1) }); err != nil {
				t.Fatalf("round %d: Atomic: %v", round, err)
			}
		}
		if _, err := s.NewThread(); err == nil {
			t.Fatalf("round %d: NewThread beyond MaxThreads unexpectedly succeeded", round)
		}
		for _, th := range ths {
			if err := th.Close(); err != nil {
				t.Fatalf("round %d: Close: %v", round, err)
			}
		}
	}
	if got := quiescentLoad(t, s, a); got != stm.Word(rounds*8) {
		t.Fatalf("counter = %d, want %d", got, rounds*8)
	}
	// Counters of closed threads must survive in the aggregate.
	if got := s.Stats().Commits; got < rounds*8 {
		t.Fatalf("aggregate Commits = %d, want >= %d (closed-thread stats lost)", got, rounds*8)
	}
}

// TestThreadCloseFlushesReclaim retires extents from many short-lived
// workers without ever calling FlushReclaim explicitly: Close must publish
// the buffered retires so a final DrainReclaim frees everything (Limbo 0).
func TestThreadCloseFlushesReclaim(t *testing.T) {
	s, err := stm.New(stm.Config{Algorithm: stm.PVRStore, HeapWords: 1 << 14, OrecCount: 1 << 8, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	const workers, extents = 12, 5
	for w := 0; w < workers; w++ {
		th := s.MustNewThread()
		for i := 0; i < extents; i++ {
			a := th.MustAlloc(2)
			// Touch the extent transactionally so the retire stamp is real.
			if err := th.Atomic(func(tx *stm.Tx) { tx.Store(a, 1) }); err != nil {
				t.Fatal(err)
			}
			th.Retire(a, 2)
		}
		// Deliberately no FlushReclaim: Close must do it.
		if err := th.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s.DrainReclaim()
	rs := s.ReclaimStats()
	if rs.Retires != workers*extents {
		t.Fatalf("Retires = %d, want %d (fronts stranded on closed threads)", rs.Retires, workers*extents)
	}
	if rs.Limbo != 0 {
		t.Fatalf("Limbo = %d after all threads closed and DrainReclaim, want 0", rs.Limbo)
	}
	if rs.Freed != workers*extents {
		t.Fatalf("Freed = %d, want %d", rs.Freed, workers*extents)
	}
}

// TestThreadCloseErrors pins the misuse surface: double close, and closing
// cannot be confused with continued use.
func TestThreadCloseErrors(t *testing.T) {
	s, err := stm.New(stm.Config{Algorithm: stm.Ord, HeapWords: 1 << 12, OrecCount: 1 << 8, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	th := s.MustNewThread()
	if err := th.Close(); err != nil {
		t.Fatal(err)
	}
	if err := th.Close(); err != stm.ErrThreadClosed {
		t.Fatalf("second Close = %v, want ErrThreadClosed", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Atomic on closed Thread did not panic")
		}
	}()
	_ = th.Atomic(func(tx *stm.Tx) {})
}

// TestThreadCloseConcurrentChurn churns workers from several goroutines
// while transactions run, under -race: slot hand-off must be properly
// ordered and the final drain clean.
func TestThreadCloseConcurrentChurn(t *testing.T) {
	s, err := stm.New(stm.Config{Algorithm: stm.PVRCAS, HeapWords: 1 << 14, OrecCount: 1 << 8, MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	a := s.MustAlloc(1)
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for round := 0; round < 15; round++ {
				th, err := s.NewThread()
				if err != nil {
					done <- err
					return
				}
				for i := 0; i < 10; i++ {
					if err := th.Atomic(func(tx *stm.Tx) { tx.Store(a, tx.Load(a)+1) }); err != nil {
						done <- err
						return
					}
				}
				e := th.MustAlloc(1)
				th.Retire(e, 1)
				if err := th.Close(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := quiescentLoad(t, s, a); got != 4*15*10 {
		t.Fatalf("counter = %d, want %d", got, 4*15*10)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.ReclaimStats().Limbo != 0 {
		s.DrainReclaim()
		if time.Now().After(deadline) {
			t.Fatalf("Limbo = %d never drained after churn", s.ReclaimStats().Limbo)
		}
	}
}

// TestTxnDeadlineAndSetLens covers the runtime-side quota hooks the server
// builds on: CheckDeadline cancels with ErrDeadlineExceeded, and the
// read/write-set length accessors grow as the body logs accesses.
func TestTxnDeadlineAndSetLens(t *testing.T) {
	s, err := stm.New(stm.Config{Algorithm: stm.PVRStore, HeapWords: 1 << 12, OrecCount: 1 << 8, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	th := s.MustNewThread()
	defer th.Close()
	a := s.MustAlloc(8)
	th.SetTxnDeadline(time.Now().Add(-time.Second))
	err = th.Atomic(func(tx *stm.Tx) {
		tx.Store(a, 1)
		tx.CheckDeadline()
	})
	if err != stm.ErrDeadlineExceeded {
		t.Fatalf("expired deadline: Atomic = %v, want ErrDeadlineExceeded", err)
	}
	th.SetTxnDeadline(time.Time{})
	err = th.Atomic(func(tx *stm.Tx) {
		for i := 0; i < 4; i++ {
			tx.Load(a + stm.Addr(i))
		}
		if n := tx.ReadSetLen(); n < 1 || n > 4 {
			tx.Cancel(errReadLen)
		}
		tx.Store(a+4, 7)
		tx.Store(a+5, 8)
		if tx.WriteSetLen() != 2 {
			tx.Cancel(errWriteLen)
		}
		tx.CheckDeadline() // disarmed: must not cancel
	})
	if err != nil {
		t.Fatalf("set-length accessors: %v", err)
	}
}

var (
	errReadLen  = errLen("read-set length out of range")
	errWriteLen = errLen("write-set length wrong")
)

type errLen string

func (e errLen) Error() string { return string(e) }

// mustQuiescent runs fn over the whole heap (STM.Quiescent), failing tb if
// a thread is still open.
func mustQuiescent(tb testing.TB, s *stm.STM, fn func(h stm.Private)) {
	tb.Helper()
	if err := s.Quiescent(fn); err != nil {
		tb.Fatal(err)
	}
}

// quiescentLoad reads the word at a once every thread has closed.
func quiescentLoad(tb testing.TB, s *stm.STM, a stm.Addr) stm.Word {
	tb.Helper()
	var w stm.Word
	mustQuiescent(tb, s, func(h stm.Private) { w = h.Load(a) })
	return w
}
