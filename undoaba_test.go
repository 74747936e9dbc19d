package stm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"privstm/internal/failpoint"
	"privstm/internal/serial"
)

// undoABASchedule runs a hand-placed schedule of the aborted-write read
// (CORRECTNESS.md §2) on alg and returns the final values of a and b. a
// starts at 7. The reader R runs tx.Store(b, tx.Load(a)); the writer W runs
// tx.Store(a, 42) and then cancels:
//
//  1. R pre-checks a's owner word and stops before loading a
//     (core/read/before-load);
//  2. W stores 42 into a, in place on the undo-log engines;
//  3. R loads a and stops before its post-check
//     (core/read/before-postcheck);
//  4. W cancels: its abort restores 7 and releases a's orec;
//  5. R post-checks a's owner word, stores what it read into b, and
//     commits.
//
// Opacity requires b == a: R either read 7 or aborted and retried.
func undoABASchedule(t *testing.T, alg Algorithm) (a, b Word) {
	t.Helper()
	s := newSTM(t, alg)
	aa, ba := s.MustAlloc(1), s.MustAlloc(1)
	if s.rt.Orecs.For(aa) == s.rt.Orecs.For(ba) {
		t.Skip("a and b share an orec")
	}
	if err := s.Quiescent(func(h Private) { h.Store(aa, 7) }); err != nil {
		t.Fatal(err)
	}
	r, w := s.MustNewThread(), s.MustNewThread()

	atLoad, stored := make(chan struct{}), make(chan struct{})
	loaded, cancelled := make(chan struct{}), make(chan struct{})
	step := func(c <-chan struct{}, what string) {
		select {
		case <-c:
		case <-time.After(10 * time.Second):
			t.Errorf("%v: schedule stuck waiting for %s", alg, what)
		}
	}
	t.Cleanup(failpoint.Reset)
	failpoint.Set(failpoint.ReadBeforeLoad, failpoint.Times(1, func(string) {
		close(atLoad)
		step(stored, "W's store")
	}))
	failpoint.Set(failpoint.ReadBeforePostcheck, failpoint.Times(1, func(string) {
		close(loaded)
		step(cancelled, "W's cancel")
	}))

	rdone := make(chan error, 1)
	go func() { rdone <- r.Atomic(func(tx *Tx) { tx.Store(ba, tx.Load(aa)) }) }()
	step(atLoad, "R's pre-check")
	errCancel := errors.New("cancel")
	attempts := 0
	err := w.Atomic(func(tx *Tx) {
		tx.Store(aa, 42)
		if attempts++; attempts == 1 {
			close(stored)
			step(loaded, "R's load")
		}
		tx.Cancel(errCancel)
	})
	close(cancelled)
	if err != errCancel {
		t.Errorf("%v: W returned %v, want its cancel", alg, err)
	}
	if err := <-rdone; err != nil {
		t.Fatalf("%v: R: %v", alg, err)
	}
	closeAll(t, r, w)
	return peek(t, s, aa), peek(t, s, ba)
}

// TestUndoABASchedule: a committed transaction never reads a value an
// aborted transaction wrote in place. Every engine's abort releases the
// orecs it owned at a fresh clock tick, so R's post-check in step 5 sees
// that a's orec moved, and R retries. Built with -tags privstm_undoaba_race,
// an abort restores the exact pre-acquisition owner word instead, and this
// test fails on the four undo-log engines.
func TestUndoABASchedule(t *testing.T) {
	for _, alg := range Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			if a, b := undoABASchedule(t, alg); a != 7 || b != a {
				t.Errorf("a = %d, b = %d, want both 7", a, b)
			}
		})
	}
}

// abortedWriteStress runs threads of read-modify-write transactions on two
// registers in separate blocks for d and returns serial.Check's verdict on
// the history. Each transaction overwrites one register in place and then
// reads the other, and every third attempt cancels after its write, so
// aborted in-place writes are frequent; written values are unique per
// attempt. failpoint.Delay at core/read/before-postcheck holds readers in
// the window between load and post-check.
func abortedWriteStress(t *testing.T, alg Algorithm, threads int, d time.Duration) error {
	t.Helper()
	s := newSTM(t, alg)
	regs := [2]Addr{s.MustAlloc(1), s.MustAlloc(1)}
	t.Cleanup(failpoint.Reset)
	failpoint.Set(failpoint.ReadBeforePostcheck, failpoint.Delay(20*time.Microsecond))
	errSkip := errors.New("skip")
	var mu sync.Mutex
	hist := &serial.History{}
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	for w := 0; w < threads; w++ {
		th := s.MustNewThread()
		tid := uint64(w + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			attempt := uint64(0)
			for i := 0; time.Now().Before(stop); i++ {
				var rec serial.Txn
				err := th.Atomic(func(tx *Tx) {
					attempt++
					rec = serial.Txn{ID: int(tid)<<32 | i}
					k := int(attempt+tid) % 2
					a, other := regs[k], regs[1-k]
					v := tx.Load(a)
					nv := tid<<48 | attempt
					tx.Store(a, Word(nv))
					rec.Reads = []serial.Op{
						{Addr: uint64(a), Val: uint64(v)},
						{Addr: uint64(other), Val: uint64(tx.Load(other))},
					}
					rec.Writes = []serial.Op{{Addr: uint64(a), Val: nv}}
					if attempt%3 == 0 {
						tx.Cancel(errSkip)
					}
				})
				if err == nil {
					mu.Lock()
					hist.Txns = append(hist.Txns, rec)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	hist.SortByID()
	return serial.Check(hist)
}

// TestAbortedWriteStress: under real threads, with readers held before
// their post-check, no undo engine lets a committed transaction read an
// aborted write. Built with -tags privstm_undoaba_race it fails
// (TestAbortedWriteStressFindsHole).
func TestAbortedWriteStress(t *testing.T) {
	for _, alg := range undoAlgos {
		t.Run(alg.String(), func(t *testing.T) {
			if err := abortedWriteStress(t, alg, 4, 200*time.Millisecond); err != nil {
				t.Error(err)
			}
		})
	}
}
