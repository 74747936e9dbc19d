package tds

import (
	"testing"
	"testing/quick"
	"unsafe"

	stm "privstm"
)

func newSTM(t testing.TB, alg stm.Algorithm) *stm.STM {
	t.Helper()
	s, err := stm.New(stm.Config{Algorithm: alg, HeapWords: 1 << 16, OrecCount: 1 << 10, MaxThreads: 16})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMapModel checks the map against a Go map under random op sequences,
// one run per engine family (the semantic commit hooks run on all of them).
func TestMapModel(t *testing.T) {
	for _, alg := range stm.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			s := newSTM(t, alg)
			th := s.MustNewThread()
			m, err := NewMap(s, 4, 8) // few buckets/stripes: force collisions
			if err != nil {
				t.Fatal(err)
			}
			model := map[stm.Word]stm.Word{}
			prop := func(ops []struct {
				K   uint8
				V   uint16
				Del bool
			}) bool {
				good := true
				_ = th.Atomic(func(tx *stm.Tx) {
					for _, op := range ops {
						k := stm.Word(op.K % 32)
						if op.Del {
							had := m.Delete(tx, k)
							_, want := model[k]
							if had != want {
								good = false
							}
							delete(model, k)
						} else {
							m.Put(tx, k, stm.Word(op.V))
							model[k] = stm.Word(op.V)
						}
					}
					if m.Len(tx) != len(model) {
						good = false
					}
					for k, want := range model {
						if got, ok := m.Get(tx, k); !ok || got != want {
							good = false
						}
					}
					for k := stm.Word(0); k < 32; k++ {
						if _, inModel := model[k]; !inModel {
							if _, ok := m.Get(tx, k); ok {
								good = false
							}
						}
					}
				})
				return good
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestQueueFIFO(t *testing.T) {
	s := newSTM(t, stm.Ord)
	th := s.MustNewThread()
	q, err := NewQueue(s)
	if err != nil {
		t.Fatal(err)
	}
	_ = th.Atomic(func(tx *stm.Tx) {
		if _, ok := q.Pop(tx); ok {
			t.Error("empty queue popped")
		}
		for i := stm.Word(1); i <= 5; i++ {
			q.Push(tx, i)
		}
		if q.Len(tx) != 5 {
			t.Errorf("Len = %d", q.Len(tx))
		}
		if v, ok := q.Peek(tx); !ok || v != 1 {
			t.Errorf("Peek = %d,%v", v, ok)
		}
		for i := stm.Word(1); i <= 5; i++ {
			v, ok := q.Pop(tx)
			if !ok || v != i {
				t.Errorf("Pop = %d,%v want %d", v, ok, i)
			}
		}
		if q.Len(tx) != 0 {
			t.Errorf("Len = %d after drain", q.Len(tx))
		}
	})
	// Size deltas only land at commit: check across transactions too.
	_ = th.Atomic(func(tx *stm.Tx) {
		for i := stm.Word(10); i < 13; i++ {
			q.Push(tx, i)
		}
	})
	_ = th.Atomic(func(tx *stm.Tx) {
		if q.Len(tx) != 3 {
			t.Errorf("committed Len = %d, want 3", q.Len(tx))
		}
		if v, ok := q.Pop(tx); !ok || v != 10 {
			t.Errorf("Pop across txns = %d,%v", v, ok)
		}
	})
}

func TestSet(t *testing.T) {
	s := newSTM(t, stm.PVRStore)
	th := s.MustNewThread()
	set, err := NewSet(s, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	_ = th.Atomic(func(tx *stm.Tx) {
		set.Add(tx, 7)
		set.Add(tx, 7)
		if !set.Contains(tx, 7) || set.Contains(tx, 8) {
			t.Error("Contains wrong")
		}
		if set.Len(tx) != 1 {
			t.Errorf("Len = %d after duplicate Add", set.Len(tx))
		}
		if !set.Remove(tx, 7) || set.Remove(tx, 7) {
			t.Error("Remove semantics wrong")
		}
		if set.Len(tx) != 0 {
			t.Errorf("Len = %d", set.Len(tx))
		}
	})
}

// TestAbortRollsBack aborts a mutating transaction mid-flight and checks
// nothing leaked: no size drift, no phantom entries, and the transactional
// node allocations were recycled rather than lost.
func TestAbortRollsBack(t *testing.T) {
	for _, alg := range []stm.Algorithm{stm.TL2, stm.Ord, stm.PVRBase, stm.PVRHybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			s := newSTM(t, alg)
			th := s.MustNewThread()
			m, _ := NewMap(s, 2, 4)
			q, _ := NewQueue(s)
			_ = th.Atomic(func(tx *stm.Tx) {
				m.Put(tx, 1, 10)
				q.Push(tx, 100)
			})
			boom := errAudit
			err := th.Atomic(func(tx *stm.Tx) {
				m.Put(tx, 2, 20)
				m.Delete(tx, 1)
				q.Push(tx, 200)
				q.Pop(tx)
				tx.Cancel(boom)
			})
			if err == nil {
				t.Fatal("cancel did not propagate")
			}
			_ = th.Atomic(func(tx *stm.Tx) {
				if v, ok := m.Get(tx, 1); !ok || v != 10 {
					t.Errorf("key 1 = %d,%v after abort", v, ok)
				}
				if _, ok := m.Get(tx, 2); ok {
					t.Error("aborted Put visible")
				}
				if m.Len(tx) != 1 {
					t.Errorf("map Len = %d after abort", m.Len(tx))
				}
				if q.Len(tx) != 1 {
					t.Errorf("queue Len = %d after abort", q.Len(tx))
				}
				if v, ok := q.Pop(tx); !ok || v != 100 {
					t.Errorf("queue head = %d,%v after abort", v, ok)
				}
				tx.Cancel(errAudit)
			})
		})
	}
}

// TestSemanticSkips checks the commuting-delta accounting: size updates
// ride semPostCommit and are counted in stats.SemanticSkips instead of
// entering any validated set.
func TestSemanticSkips(t *testing.T) {
	s := newSTM(t, stm.Ord)
	th := s.MustNewThread()
	q, _ := NewQueue(s)
	for i := 0; i < 5; i++ {
		_ = th.Atomic(func(tx *stm.Tx) { q.Push(tx, stm.Word(i)) })
	}
	if got := s.Stats().SemanticSkips; got < 5 {
		t.Errorf("SemanticSkips = %d, want >= 5", got)
	}
}

func TestPrivateSnapshot(t *testing.T) {
	s := newSTM(t, stm.PVRStore)
	th := s.MustNewThread()
	m, _ := NewMap(s, 2, 8)
	_ = th.Atomic(func(tx *stm.Tx) {
		for i := stm.Word(0); i < 16; i++ {
			m.Put(tx, i, i*10)
		}
	})
	var lenBefore int
	_ = th.Atomic(func(tx *stm.Tx) { lenBefore = m.Len(tx) })
	if lenBefore != 16 {
		t.Fatalf("Len = %d", lenBefore)
	}
	total := 0
	for b := 0; b < m.Buckets(); b++ {
		pl, err := m.PrivateSnapshot(th, b)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		pl.Each(func(node stm.Private) bool {
			k := node.Load(1)
			v := node.Load(2)
			if v != k*10 {
				t.Errorf("private node %d -> %d, want %d", k, v, k*10)
			}
			n++
			return true
		})
		if n != pl.Count {
			t.Errorf("Each visited %d, Count = %d", n, pl.Count)
		}
		total += pl.Count
		pl.Retire(th)
		left := 0
		pl.Each(func(stm.Private) bool { left++; return true })
		if left != 0 || pl.Count != 0 {
			t.Error("Retire did not empty the list")
		}
	}
	if total != 16 {
		t.Errorf("snapshots held %d entries, want 16", total)
	}
	_ = th.Atomic(func(tx *stm.Tx) {
		if m.Len(tx) != 0 {
			t.Errorf("Len = %d after snapshotting every bucket", m.Len(tx))
		}
		if _, ok := m.Get(tx, 3); ok {
			t.Error("privatized key still reachable")
		}
	})
}

// TestPrivateListSize: the escape hatch returns a PrivateList by value, so
// every hand-off copies it out of the call; it stays at 32 bytes (a
// three-word stm.Private and the count, the noCopy marker taking no room).
func TestPrivateListSize(t *testing.T) {
	if got := unsafe.Sizeof(PrivateList{}); got > 32 {
		t.Errorf("PrivateList is %d bytes, want at most 32", got)
	}
}

// TestPrivateHandoutsAllocate0 pins the Figure 1 hand-off at zero Go
// allocations in steady state: refill a bucket (or the queue), privatize
// it, walk it uninstrumented and retire the nodes. The PrivateList stays on
// the caller's stack and the nodes go back to the STM heap's reclaimer.
func TestPrivateHandoutsAllocate0(t *testing.T) {
	s := newSTM(t, stm.PVRStore)
	th := s.MustNewThread()
	m, _ := NewMap(s, 1, 8) // one bucket: a snapshot takes every key
	q, _ := NewQueue(s)
	fill := func(tx *stm.Tx) {
		for k := stm.Word(0); k < 8; k++ {
			m.Put(tx, k, k+1)
			q.Push(tx, k)
		}
	}
	var walked int
	countKV := func(k, v stm.Word) bool { walked++; return v == k+1 }
	countV := func(stm.Word) bool { walked++; return true }
	cycle := func() {
		if err := th.Atomic(fill); err != nil {
			t.Fatal(err)
		}
		walked = 0
		pl, err := m.PrivateSnapshot(th, 0)
		if err != nil {
			t.Fatal(err)
		}
		pl.EachKV(countKV)
		if walked != pl.Count || walked != 8 {
			t.Fatalf("map walk visited %d of %d nodes, want 8", walked, pl.Count)
		}
		pl.Retire(th)
		walked = 0
		ql, err := q.DrainPrivate(th)
		if err != nil {
			t.Fatal(err)
		}
		ql.EachValue(countV)
		if walked != ql.Count || walked != 8 {
			t.Fatalf("queue walk visited %d of %d nodes, want 8", walked, ql.Count)
		}
		ql.Retire(th)
	}
	for i := 0; i < 1000; i++ { // warm up: logs, limbo lists, reclaimer batches
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("hand-off cycle: %v allocations, want 0", n)
	}
}

func TestDrainPrivate(t *testing.T) {
	s := newSTM(t, stm.Ord)
	th := s.MustNewThread()
	q, _ := NewQueue(s)
	_ = th.Atomic(func(tx *stm.Tx) {
		for i := stm.Word(1); i <= 6; i++ {
			q.Push(tx, i)
		}
	})
	pl, err := q.DrainPrivate(th)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Count != 6 {
		t.Fatalf("drained Count = %d", pl.Count)
	}
	want := stm.Word(1)
	pl.Each(func(node stm.Private) bool {
		if v := node.Load(1); v != want {
			t.Errorf("drained %d, want %d", v, want)
		}
		want++
		return true
	})
	pl.Retire(th)
	_ = th.Atomic(func(tx *stm.Tx) {
		if q.Len(tx) != 0 {
			t.Errorf("Len = %d after drain", q.Len(tx))
		}
		if _, ok := q.Pop(tx); ok {
			t.Error("drained queue popped")
		}
		q.Push(tx, 42) // queue stays usable after a drain
	})
	_ = th.Atomic(func(tx *stm.Tx) {
		if v, ok := q.Pop(tx); !ok || v != 42 {
			t.Errorf("post-drain Pop = %d,%v", v, ok)
		}
		tx.Cancel(errAudit)
	})
}

// TestEscapeHatchRefusedOnTL2: handing out privatized extents requires a
// privatization-safe algorithm; the TL2 baseline must be refused.
func TestEscapeHatchRefusedOnTL2(t *testing.T) {
	s := newSTM(t, stm.TL2)
	th := s.MustNewThread()
	m, _ := NewMap(s, 2, 4)
	q, _ := NewQueue(s)
	if _, err := m.PrivateSnapshot(th, 0); err != ErrNotPrivatizationSafe {
		t.Errorf("PrivateSnapshot on TL2: err = %v", err)
	}
	if _, err := q.DrainPrivate(th); err != ErrNotPrivatizationSafe {
		t.Errorf("DrainPrivate on TL2: err = %v", err)
	}
}

var errAudit = errBoom{}

type errBoom struct{}

func (errBoom) Error() string { return "audit" }
