package stm

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// chain builds a list of n two-word [next, value] nodes hanging off a
// fresh head word, values 1..n, through Quiescent.
func chain(t *testing.T, s *STM, n int) (head Addr) {
	t.Helper()
	head = s.MustAlloc(1)
	if err := s.Quiescent(func(h Private) {
		prev := head
		for i := 1; i <= n; i++ {
			node := s.MustAlloc(2)
			h.Store(node+1, Word(i))
			h.Store(prev, Word(node))
			prev = node
		}
	}); err != nil {
		t.Fatal(err)
	}
	return head
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestPrivatizeHandsOutTheDetachedExtent: on every algorithm, TL2 included
// (it is not refused; Figure 1's controls need it), Privatize returns a
// handle on the extent its body named, stamped with the commit's
// timestamp, and the handle reads the committed words.
func TestPrivatizeHandsOutTheDetachedExtent(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		head := chain(t, s, 3)
		th := s.MustNewThread()
		p, err := th.Privatize(func(tx *Tx) (Addr, int) {
			first := tx.LoadAddr(head)
			tx.StoreAddr(head, Nil)
			return first, 2
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.ts == 0 || p.ts != th.t.LastCommitTS {
			t.Errorf("handle stamped %d, privatizing commit at %d", p.ts, th.t.LastCommitTS)
		}
		var got []Word
		for n := p; n.Base() != Nil; n = n.Follow(0, 2) {
			got = append(got, n.Load(1))
			if n.ts != p.ts {
				t.Errorf("Follow dropped the commit timestamp: %d, want %d", n.ts, p.ts)
			}
		}
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Errorf("walked %v, want [1 2 3]", got)
		}
		if txLoad(th, head) != 0 {
			t.Error("the head still points at the privatized chain")
		}
	})
}

// TestPrivatizeRefusesReadOnlyEscape is the run-time form of the retired
// privaccess rule-2 fixture UnprivatizedEscape: a read-only transaction
// that lets the address it loaded escape detaches nothing, so Privatize
// returns ErrNothingPrivatized and a zero handle.
func TestPrivatizeRefusesReadOnlyEscape(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		s := newSTM(t, alg)
		head := chain(t, s, 2)
		th := s.MustNewThread()
		p, err := th.Privatize(func(tx *Tx) (Addr, int) { return tx.LoadAddr(head), 2 })
		if !errors.Is(err, ErrNothingPrivatized) {
			t.Fatalf("Privatize of a read-only body: err = %v, want ErrNothingPrivatized", err)
		}
		if p != (Private{}) {
			t.Errorf("Privatize of a read-only body returned a handle %+v", p)
		}
		mustPanic(t, "Load through the refused handle", func() { p.Load(0) })
	})
}

// TestPrivatizeRefusesReadOnlyDerived is the run-time form of the
// fixture DerivedEscape: a field offset of the escaped address is no more
// private than the address, and the refused handle has no extent to offset
// into.
func TestPrivatizeRefusesReadOnlyDerived(t *testing.T) {
	s := newSTM(t, PVRStore)
	head := chain(t, s, 1)
	th := s.MustNewThread()
	p, err := th.Privatize(func(tx *Tx) (Addr, int) { return tx.LoadAddr(head), 2 })
	if !errors.Is(err, ErrNothingPrivatized) {
		t.Fatalf("err = %v, want ErrNothingPrivatized", err)
	}
	mustPanic(t, "Load at a field offset of the refused handle", func() { p.Load(1) })
	mustPanic(t, "Follow from the refused handle", func() { p.Follow(0, 2) })
}

// TestPrivatizeRefusesReadOnlyDrain is the run-time form of the fixture
// DrainWithoutDetach: a drain that walks and counts the chain but forgets
// to unlink it hands out nothing, and the chain stays shared.
func TestPrivatizeRefusesReadOnlyDrain(t *testing.T) {
	s := newSTM(t, PVRCAS)
	head := chain(t, s, 4)
	th := s.MustNewThread()
	count := 0
	p, err := th.Privatize(func(tx *Tx) (Addr, int) {
		first := tx.LoadAddr(head)
		count = 0
		for n := first; n != Nil; n = tx.LoadAddr(n) {
			count++
		}
		return first, 2
	})
	if !errors.Is(err, ErrNothingPrivatized) || p.Base() != Nil {
		t.Fatalf("drain without detach: handle base %v, err %v; want Nil, ErrNothingPrivatized", p.Base(), err)
	}
	if count != 4 || txLoad(th, head) == 0 {
		t.Errorf("the body walked %d nodes and the head is %d; the chain must stay shared", count, txLoad(th, head))
	}
}

// TestPrivatizeReturnsCancel: a cancelled body privatizes nothing, and
// Privatize returns the cancel error with a zero handle.
func TestPrivatizeReturnsCancel(t *testing.T) {
	s := newSTM(t, PVRStore)
	head := chain(t, s, 1)
	th := s.MustNewThread()
	errStop := errors.New("stop")
	p, err := th.Privatize(func(tx *Tx) (Addr, int) {
		first := tx.LoadAddr(head)
		tx.StoreAddr(head, Nil)
		tx.Cancel(errStop)
		return first, 2
	})
	if err != errStop || p != (Private{}) {
		t.Fatalf("cancelled Privatize: %+v, %v; want zero handle, %v", p, err, errStop)
	}
	if txLoad(th, head) == 0 {
		t.Error("the cancelled detach was not rolled back")
	}
}

// TestQuiescentRefusesOpenThreads: Quiescent does not run fn while a
// thread is open, and runs it once the last one has closed.
func TestQuiescentRefusesOpenThreads(t *testing.T) {
	s := newSTM(t, PVRStore)
	th := s.MustNewThread()
	ran := false
	if err := s.Quiescent(func(Private) { ran = true }); !errors.Is(err, ErrThreadsOpen) || ran {
		t.Fatalf("Quiescent with an open thread: err %v, fn ran %v; want ErrThreadsOpen, not run", err, ran)
	}
	closeAll(t, th)
	if err := s.Quiescent(func(Private) { ran = true }); err != nil || !ran {
		t.Fatalf("Quiescent after Close: err %v, fn ran %v", err, ran)
	}
}

// TestQuiescentHoldsRegistration: a NewThread called while fn runs returns
// only after fn has returned.
func TestQuiescentHoldsRegistration(t *testing.T) {
	s := newSTM(t, PVRStore)
	var inFn atomic.Bool
	started := make(chan struct{})
	sawInFn := make(chan bool, 1)
	if err := s.Quiescent(func(Private) {
		inFn.Store(true)
		go func() {
			close(started)
			th, err := s.NewThread()
			sawInFn <- inFn.Load()
			if err == nil {
				_ = th.Close()
			}
		}()
		<-started
		// There is no event for "NewThread is blocked": the sleep only
		// gives it time to get there. Were registration not held, the
		// thread would open while fn still runs; a slow host can make the
		// test pass vacuously, never fail falsely.
		time.Sleep(20 * time.Millisecond)
		inFn.Store(false)
	}); err != nil {
		t.Fatal(err)
	}
	if <-sawInFn {
		t.Fatal("NewThread returned while Quiescent's fn was running")
	}
}

// TestPrivateOutOfExtentPanics: every access outside the handle's extent
// panics, for a privatized extent, a Nil-terminated Follow and the
// whole-heap handle alike.
func TestPrivateOutOfExtentPanics(t *testing.T) {
	s := newSTM(t, PVRStore)
	head := chain(t, s, 1)
	th := s.MustNewThread()
	p, err := th.Privatize(func(tx *Tx) (Addr, int) {
		first := tx.LoadAddr(head)
		tx.StoreAddr(head, Nil)
		return first, 2
	})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "Load(2) of a 2-word extent", func() { p.Load(2) })
	mustPanic(t, "Store(2) of a 2-word extent", func() { p.Store(2, 0) })
	mustPanic(t, "Follow(2) of a 2-word extent", func() { p.Follow(2, 2) })
	end := p.Follow(0, 2) // the node's next is Nil
	if end.Base() != Nil {
		t.Fatalf("Follow of a Nil pointer: base %v", end.Base())
	}
	mustPanic(t, "Load through a Nil Follow", func() { end.Load(0) })
	closeAll(t, th)
	if err := s.Quiescent(func(h Private) {
		mustPanic(t, "whole-heap Load past the heap", func() { h.Load(Addr(s.rt.Heap.Size())) })
		h.Store(head, 1<<40)
		mustPanic(t, "Follow of a pointer beyond any heap", func() { h.Follow(head, 2) })
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFollowIgnoresMarkBit: a pointer word with its top bit set (a
// Harris-style deleted mark) is followed to the unmarked address.
func TestFollowIgnoresMarkBit(t *testing.T) {
	s := newSTM(t, PVRStore)
	a, b := s.MustAlloc(2), s.MustAlloc(2)
	if err := s.Quiescent(func(h Private) {
		h.Store(a, Word(b)|markBit)
		h.Store(b+1, 7)
		if got := h.Follow(a, 2); got.Base() != b || got.Load(1) != 7 {
			t.Errorf("Follow of a marked pointer reached %v", got.Base())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFollowWalkAllocatesNothing: a private chain walk through Follow is
// plain loads, so it allocates nothing (the privatized walk of
// kv_privatize; make inline-check pins the inlining).
func TestFollowWalkAllocatesNothing(t *testing.T) {
	s := newSTM(t, PVRStore)
	head := chain(t, s, 64)
	th := s.MustNewThread()
	p, err := th.Privatize(func(tx *Tx) (Addr, int) {
		first := tx.LoadAddr(head)
		tx.StoreAddr(head, Nil)
		return first, 2
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum Word
	allocs := testing.AllocsPerRun(100, func() {
		for n := p; n.Base() != Nil; n = n.Follow(0, 2) {
			sum += n.Load(1)
		}
	})
	if allocs != 0 {
		t.Errorf("Follow walk: %v allocs per run, want 0", allocs)
	}
	if sum != 101*64*65/2 {
		t.Errorf("walk summed %d", sum)
	}
}

// TestPrivateIsThreeWords: a handle holds 32-bit addresses, so it is three
// words, and New refuses a heap its addresses cannot reach.
func TestPrivateIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(Private{}); got != 24 {
		t.Errorf("Private is %d bytes, want 24", got)
	}
	if _, err := New(Config{Algorithm: PVRStore, HeapWords: 1<<32 + 1}); err == nil {
		t.Error("New accepted a heap beyond 2^32 words")
	}
}
