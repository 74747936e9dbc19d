package tds

import (
	"math/rand"
	"testing"

	stm "privstm"
)

// TestEquivalenceWithModel replays randomized multi-op transactions against
// the semantic containers and against a plain Go model — a map and a
// slice-backed FIFO, applied after each Atomic returns — demanding identical
// observations op for op. The model shares no code with the STM, so it
// cannot share the containers' bugs. Runs on a redo and an undo engine.
func TestEquivalenceWithModel(t *testing.T) {
	for _, alg := range []stm.Algorithm{stm.Ord, stm.PVRCAS} {
		t.Run(alg.String(), func(t *testing.T) {
			s := newSTM(t, alg)
			th := s.MustNewThread()
			m, err := NewMap(s, 4, 16)
			if err != nil {
				t.Fatal(err)
			}
			q, err := NewQueue(s)
			if err != nil {
				t.Fatal(err)
			}
			model := map[stm.Word]stm.Word{}
			var fifo []stm.Word

			type op struct {
				kind int // 0 put, 1 get, 2 del, 3 mlen, 4 push, 5 pop, 6 peek, 7 qlen
				k, v stm.Word
			}
			type obs struct {
				v  stm.Word
				ok bool
				n  int
			}
			rng := rand.New(rand.NewSource(7))
			for txn := 0; txn < 400; txn++ {
				plan := make([]op, 1+rng.Intn(6))
				for i := range plan {
					plan[i] = op{kind: rng.Intn(8), k: stm.Word(rng.Intn(48)), v: stm.Word(rng.Intn(1 << 16))}
				}
				var got []obs
				if err := th.Atomic(func(tx *stm.Tx) {
					got = got[:0]
					for _, o := range plan {
						var r obs
						switch o.kind {
						case 0:
							m.Put(tx, o.k, o.v)
						case 1:
							r.v, r.ok = m.Get(tx, o.k)
						case 2:
							r.ok = m.Delete(tx, o.k)
						case 3:
							r.n = m.Len(tx)
						case 4:
							q.Push(tx, o.v)
						case 5:
							r.v, r.ok = q.Pop(tx)
						case 6:
							r.v, r.ok = q.Peek(tx)
						case 7:
							r.n = q.Len(tx)
						}
						got = append(got, r)
					}
				}); err != nil {
					t.Fatal(err)
				}

				for i, o := range plan {
					var want obs
					switch o.kind {
					case 0:
						model[o.k] = o.v
					case 1:
						want.v, want.ok = model[o.k]
					case 2:
						_, want.ok = model[o.k]
						delete(model, o.k)
					case 3:
						want.n = len(model)
					case 4:
						fifo = append(fifo, o.v)
					case 5:
						if want.ok = len(fifo) > 0; want.ok {
							want.v, fifo = fifo[0], fifo[1:]
						}
					case 6:
						if want.ok = len(fifo) > 0; want.ok {
							want.v = fifo[0]
						}
					case 7:
						want.n = len(fifo)
					}
					if got[i] != want {
						t.Fatalf("txn %d op %d (%+v): tds observed %+v, model %+v",
							txn, i, o, got[i], want)
					}
				}
			}
		})
	}
}
