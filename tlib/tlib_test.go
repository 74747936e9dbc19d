package tlib

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

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

func TestQueueFIFO(t *testing.T) {
	s := newSTM(t, stm.PVRStore)
	th := s.MustNewThread()
	q, err := NewQueue(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = th.Atomic(func(tx *stm.Tx) {
		if _, ok := q.Dequeue(tx); ok {
			t.Error("empty queue dequeued")
		}
		for i := stm.Word(1); i <= 5; i++ {
			if err := q.Enqueue(tx, i); err != nil {
				t.Fatal(err)
			}
		}
		if q.Len(tx) != 5 {
			t.Errorf("Len = %d", q.Len(tx))
		}
		if v, ok := q.Peek(tx); !ok || v != 1 {
			t.Errorf("Peek = %d,%v", v, ok)
		}
		for i := stm.Word(1); i <= 5; i++ {
			v, ok := q.Dequeue(tx)
			if !ok || v != i {
				t.Errorf("Dequeue = %d,%v want %d", v, ok, i)
			}
		}
		if q.Len(tx) != 0 {
			t.Errorf("Len = %d after drain", q.Len(tx))
		}
	})
}

func TestQueueCapacityAndReuse(t *testing.T) {
	s := newSTM(t, stm.TL2)
	th := s.MustNewThread()
	q, _ := NewQueue(s, 3)
	_ = th.Atomic(func(tx *stm.Tx) {
		for i := 0; i < 3; i++ {
			if err := q.Enqueue(tx, stm.Word(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.Enqueue(tx, 99); !errors.Is(err, ErrFull) {
			t.Errorf("overflow err = %v", err)
		}
		// Free one node and the capacity returns — inside the same txn.
		q.Dequeue(tx)
		if err := q.Enqueue(tx, 99); err != nil {
			t.Errorf("enqueue after dequeue: %v", err)
		}
	})
	// Pool accounting after commit: 3 in use, 0 free.
	if free := q.pool.freeCount(s); free != 0 {
		t.Errorf("free nodes = %d, want 0", free)
	}
}

func TestQueueAbortRestoresPool(t *testing.T) {
	s := newSTM(t, stm.PVRBase)
	th := s.MustNewThread()
	q, _ := NewQueue(s, 4)
	boom := errors.New("boom")
	err := th.Atomic(func(tx *stm.Tx) {
		_ = q.Enqueue(tx, 1)
		_ = q.Enqueue(tx, 2)
		tx.Cancel(boom)
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if free := q.pool.freeCount(s); free != 4 {
		t.Errorf("free nodes after abort = %d, want 4 (allocation rolled back)", free)
	}
	_ = th.Atomic(func(tx *stm.Tx) {
		if q.Len(tx) != 0 {
			t.Errorf("queue length %d after aborted enqueues", q.Len(tx))
		}
	})
}

func TestStackLIFO(t *testing.T) {
	s := newSTM(t, stm.Ord)
	th := s.MustNewThread()
	st, _ := NewStack(s, 8)
	_ = th.Atomic(func(tx *stm.Tx) {
		for i := stm.Word(1); i <= 4; i++ {
			if err := st.Push(tx, i); err != nil {
				t.Fatal(err)
			}
		}
		for i := stm.Word(4); i >= 1; i-- {
			v, ok := st.Pop(tx)
			if !ok || v != i {
				t.Errorf("Pop = %d,%v want %d", v, ok, i)
			}
		}
		if _, ok := st.Pop(tx); ok {
			t.Error("empty stack popped")
		}
	})
}

func TestMapModel(t *testing.T) {
	// Property: Map agrees with a Go map under random op sequences.
	s := newSTM(t, stm.PVRCAS)
	th := s.MustNewThread()
	m, err := NewMap(s, 8, 128)
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
				k := stm.Word(op.K % 64)
				if op.Del {
					had := m.Delete(tx, k)
					_, want := model[k]
					if had != want {
						good = false
					}
					delete(model, k)
				} else {
					if err := m.Put(tx, k, stm.Word(op.V)); err != nil {
						good = false
					}
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
		})
		return good
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMapRange(t *testing.T) {
	s := newSTM(t, stm.Val)
	th := s.MustNewThread()
	m, _ := NewMap(s, 4, 32)
	_ = th.Atomic(func(tx *stm.Tx) {
		for i := stm.Word(0); i < 10; i++ {
			_ = m.Put(tx, i, i*i)
		}
		seen := map[stm.Word]stm.Word{}
		m.Range(tx, func(k, v stm.Word) bool {
			seen[k] = v
			return true
		})
		if len(seen) != 10 {
			t.Errorf("Range saw %d entries", len(seen))
		}
		for k, v := range seen {
			if v != k*k {
				t.Errorf("Range saw %d -> %d", k, v)
			}
		}
		// Early stop.
		n := 0
		m.Range(tx, func(k, v stm.Word) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Errorf("early-stop Range visited %d", n)
		}
	})
}

func TestSet(t *testing.T) {
	s := newSTM(t, stm.PVRWriterOnly)
	th := s.MustNewThread()
	set, _ := NewSet(s, 4, 16)
	_ = th.Atomic(func(tx *stm.Tx) {
		added, err := set.Add(tx, 7)
		if err != nil || !added {
			t.Errorf("Add(7) = %v,%v", added, err)
		}
		added, _ = set.Add(tx, 7)
		if added {
			t.Error("duplicate Add reported added")
		}
		if !set.Contains(tx, 7) || set.Contains(tx, 8) {
			t.Error("Contains wrong")
		}
		if !set.Remove(tx, 7) || set.Remove(tx, 7) {
			t.Error("Remove semantics wrong")
		}
		if set.Len(tx) != 0 {
			t.Errorf("Len = %d", set.Len(tx))
		}
	})
}

func TestCounters(t *testing.T) {
	s := newSTM(t, stm.PVRHybrid)
	th := s.MustNewThread()
	c, _ := NewCounter(s)
	sc, _ := NewStripedCounter(s, 4)
	_ = th.Atomic(func(tx *stm.Tx) {
		c.Add(tx, 5)
		c.Add(tx, -2)
		if c.Value(tx) != 3 {
			t.Errorf("Counter = %d", c.Value(tx))
		}
		for h := uint64(0); h < 8; h++ {
			sc.Add(tx, h, 1)
		}
		if sc.Value(tx) != 8 {
			t.Errorf("StripedCounter = %d", sc.Value(tx))
		}
	})
}

func TestRing(t *testing.T) {
	s := newSTM(t, stm.PVRStore)
	th := s.MustNewThread()
	r, _ := NewRing(s, 3)
	_ = th.Atomic(func(tx *stm.Tx) {
		for i := stm.Word(1); i <= 3; i++ {
			if err := r.Put(tx, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Put(tx, 4); !errors.Is(err, ErrFull) {
			t.Errorf("overflow = %v", err)
		}
		if v, ok := r.Take(tx); !ok || v != 1 {
			t.Errorf("Take = %d,%v", v, ok)
		}
		if err := r.Put(tx, 4); err != nil {
			t.Errorf("Put after Take: %v (wrap-around broken)", err)
		}
		for want := stm.Word(2); want <= 4; want++ {
			if v, ok := r.Take(tx); !ok || v != want {
				t.Errorf("Take = %d,%v want %d", v, ok, want)
			}
		}
	})
}

// TestComposition moves elements between structures atomically: the sum of
// queue+stack contents is invariant under concurrent transfers.
func TestComposition(t *testing.T) {
	for _, alg := range stm.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			s := newSTM(t, alg)
			q, _ := NewQueue(s, 64)
			st, _ := NewStack(s, 64)
			seed := s.MustNewThread()
			_ = seed.Atomic(func(tx *stm.Tx) {
				for i := 0; i < 32; i++ {
					_ = q.Enqueue(tx, 1)
				}
			})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				th := s.MustNewThread()
				wg.Add(1)
				go func(back bool) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						_ = th.Atomic(func(tx *stm.Tx) {
							if back {
								if v, ok := st.Pop(tx); ok {
									_ = q.Enqueue(tx, v)
								}
								return
							}
							if v, ok := q.Dequeue(tx); ok {
								_ = st.Push(tx, v)
							}
						})
					}
				}(w%2 == 1)
			}
			wg.Wait()
			th := s.MustNewThread()
			var total stm.Word
			_ = th.Atomic(func(tx *stm.Tx) {
				total = 0
				for {
					v, ok := q.Dequeue(tx)
					if !ok {
						break
					}
					total += v
				}
				for {
					v, ok := st.Pop(tx)
					if !ok {
						break
					}
					total += v
				}
				tx.Cancel(errAudit) // audit only; roll the drains back
			})
			if total != 32 {
				t.Errorf("total = %d, want 32", total)
			}
		})
	}
}

var errAudit = errors.New("audit")

// TestConcurrentMap hammers one Map from several threads and checks it
// against per-key ownership (each thread owns a key range).
func TestConcurrentMap(t *testing.T) {
	for _, alg := range []stm.Algorithm{stm.TL2, stm.Ord, stm.PVRStore, stm.PVRHybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			s := newSTM(t, alg)
			m, _ := NewMap(s, 16, 512)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				th := s.MustNewThread()
				base := stm.Word(w * 100)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 150; i++ {
						k := base + stm.Word(i%50)
						_ = th.Atomic(func(tx *stm.Tx) {
							if v, ok := m.Get(tx, k); ok {
								_ = m.Put(tx, k, v+1)
							} else {
								_ = m.Put(tx, k, 1)
							}
						})
					}
				}()
			}
			wg.Wait()
			th := s.MustNewThread()
			_ = th.Atomic(func(tx *stm.Tx) {
				var sum stm.Word
				m.Range(tx, func(_, v stm.Word) bool {
					sum += v
					return true
				})
				if sum != 600 {
					t.Errorf("total increments = %d, want 600", sum)
				}
				if m.Len(tx) != 200 {
					t.Errorf("Len = %d, want 200", m.Len(tx))
				}
			})
		})
	}
}

func TestPoolValidation(t *testing.T) {
	s := newSTM(t, stm.TL2)
	if _, err := NewQueue(s, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := newPool(s, 4, 0); err == nil {
		t.Error("zero node size accepted")
	}
}
