package stm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func forEachAlgorithm(t *testing.T, fn func(t *testing.T, alg Algorithm)) {
	t.Helper()
	for _, alg := range Algorithms {
		t.Run(alg.String(), func(t *testing.T) { fn(t, alg) })
	}
}

func newSTM(t *testing.T, alg Algorithm) *STM {
	t.Helper()
	s, err := New(Config{Algorithm: alg, HeapWords: 1 << 16, OrecCount: 1 << 10})
	if err != nil {
		t.Fatalf("New(%v): %v", alg, err)
	}
	return s
}

// closeAll closes every thread, failing the test on an error.
func closeAll(t testing.TB, ths ...*Thread) {
	t.Helper()
	for _, th := range ths {
		if err := th.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// peek reads the word at a through Quiescent, so every thread must be
// closed.
func peek(t testing.TB, s *STM, a Addr) Word {
	t.Helper()
	var w Word
	if err := s.Quiescent(func(h Private) { w = h.Load(a) }); err != nil {
		t.Fatal(err)
	}
	return w
}

// txLoad reads the word at a in a transaction of th.
func txLoad(th *Thread, a Addr) Word {
	var w Word
	_ = th.Atomic(func(tx *Tx) { w = tx.Load(a) })
	return w
}

func TestSingleThreadReadWrite(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		a := s.MustAlloc(4)
		th := s.MustNewThread()
		if err := th.Atomic(func(tx *Tx) {
			for i := Addr(0); i < 4; i++ {
				tx.Store(a+i, Word(100+i))
			}
		}); err != nil {
			t.Fatalf("Atomic: %v", err)
		}
		if err := th.Atomic(func(tx *Tx) {
			for i := Addr(0); i < 4; i++ {
				if got := tx.Load(a + i); got != Word(100+i) {
					t.Errorf("word %d: got %d, want %d", i, got, 100+i)
				}
			}
		}); err != nil {
			t.Fatalf("Atomic: %v", err)
		}
	})
}

func TestReadYourWrites(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		a := s.MustAlloc(1)
		th := s.MustNewThread()
		err := th.Atomic(func(tx *Tx) {
			tx.Store(a, 7)
			if got := tx.Load(a); got != 7 {
				t.Errorf("read-your-write: got %d, want 7", got)
			}
			tx.Store(a, 8)
			if got := tx.Load(a); got != 8 {
				t.Errorf("read-your-write after overwrite: got %d, want 8", got)
			}
		})
		if err != nil {
			t.Fatalf("Atomic: %v", err)
		}
		closeAll(t, th)
		if got := peek(t, s, a); got != 8 {
			t.Errorf("after commit: got %d, want 8", got)
		}
	})
}

func TestCancelRollsBack(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		a := s.MustAlloc(2)
		th := s.MustNewThread()
		if err := th.Atomic(func(tx *Tx) { tx.Store(a, 1); tx.Store(a+1, 2) }); err != nil {
			t.Fatal(err)
		}
		errBoom := errors.New("boom")
		err := th.Atomic(func(tx *Tx) {
			tx.Store(a, 99)
			tx.Store(a+1, 98)
			tx.Cancel(errBoom)
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("Atomic returned %v, want %v", err, errBoom)
		}
		if got, got2 := txLoad(th, a), txLoad(th, a+1); got != 1 || got2 != 2 {
			t.Errorf("after cancel: got (%d,%d), want (1,2)", got, got2)
		}
		// The STM must remain usable after a cancelled transaction.
		if err := th.Atomic(func(tx *Tx) { tx.Store(a, 3) }); err != nil {
			t.Fatal(err)
		}
		closeAll(t, th)
		if got := peek(t, s, a); got != 3 {
			t.Errorf("after recovery: got %d, want 3", got)
		}
	})
}

func TestPanicPropagatesAfterRollback(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		a := s.MustAlloc(1)
		th := s.MustNewThread()
		func() {
			defer func() {
				if r := recover(); r != "user bug" {
					t.Errorf("recover: got %v, want \"user bug\"", r)
				}
			}()
			_ = th.Atomic(func(tx *Tx) {
				tx.Store(a, 42)
				panic("user bug")
			})
		}()
		closeAll(t, th)
		if got := peek(t, s, a); got != 0 {
			t.Errorf("after panic: got %d, want 0 (rolled back)", got)
		}
	})
}

func TestConcurrentCounter(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		ctr := s.MustAlloc(1)
		const (
			threads = 8
			incs    = 200
		)
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			th := s.MustNewThread()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer th.Close() // before Done: the final read needs every thread closed
				for j := 0; j < incs; j++ {
					_ = th.Atomic(func(tx *Tx) {
						tx.Store(ctr, tx.Load(ctr)+1)
					})
				}
			}()
		}
		wg.Wait()
		if got := peek(t, s, ctr); got != threads*incs {
			t.Errorf("counter: got %d, want %d", got, threads*incs)
		}
	})
}

func TestBankTransferInvariant(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		const (
			accounts = 16
			initial  = 1000
			threads  = 6
			transfer = 300
		)
		base := s.MustAlloc(accounts)
		if err := s.Quiescent(func(h Private) {
			for i := Addr(0); i < accounts; i++ {
				h.Store(base+i, initial)
			}
		}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		violations := make(chan string, threads)
		for i := 0; i < threads; i++ {
			th := s.MustNewThread()
			seed := uint64(i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer th.Close() // before Done: the final read needs every thread closed
				x := seed
				for j := 0; j < transfer; j++ {
					x = x*6364136223846793005 + 1442695040888963407
					from := Addr(x>>33) % accounts
					to := Addr(x>>13) % accounts
					if from == to {
						to = (to + 1) % accounts
					}
					// Transfer 1 unit, and occasionally audit the total.
					_ = th.Atomic(func(tx *Tx) {
						f := tx.Load(base + from)
						tx.Store(base+from, f-1)
						tx.Store(base+to, tx.Load(base+to)+1)
					})
					if j%32 == 0 {
						var sum Word
						_ = th.Atomic(func(tx *Tx) {
							sum = 0
							for k := Addr(0); k < accounts; k++ {
								sum += tx.Load(base + k)
							}
						})
						if sum != accounts*initial {
							violations <- fmt.Sprintf("audit saw total %d, want %d", sum, accounts*initial)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(violations)
		for v := range violations {
			t.Error(v)
		}
		var sum Word
		for i := Addr(0); i < accounts; i++ {
			sum += peek(t, s, base+i)
		}
		if sum != accounts*initial {
			t.Errorf("final total %d, want %d", sum, accounts*initial)
		}
	})
}

func TestWriteConflictAbortsOne(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		a := s.MustAlloc(1)
		const threads = 4
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			th := s.MustNewThread()
			wg.Add(1)
			go func(v Word) {
				defer wg.Done()
				defer th.Close() // before Done: the final read needs every thread closed
				for j := 0; j < 100; j++ {
					_ = th.Atomic(func(tx *Tx) { tx.Store(a, v) })
				}
			}(Word(i + 1))
		}
		wg.Wait()
		got := peek(t, s, a)
		if got < 1 || got > threads {
			t.Errorf("final value %d not written by any thread", got)
		}
	})
}
