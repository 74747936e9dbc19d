package tds

import (
	"fmt"

	stm "privstm"
	"privstm/internal/sched"
)

// privOvertakeProgram is the schedule-exploration micro-program for the
// post-timestamp stripe re-validation (core.Thread.SemStillValid,
// CORRECTNESS.md §15). One bucket holding keys 10, 20, 30; two workers:
//
//   - "privatizer" detaches the bucket with PrivateSnapshot and walks the
//     handed-out chain with plain loads;
//   - "mutator" commits one Delete(20), or — put set — one Put(15, _).
//     Either rewrites only link words in the middle of the chain, which
//     the privatizer's walk logs before it reaches the last node (the
//     yield point the overtaking schedule preempts it at), and shares no
//     written word with the privatizer, which writes the head: the bucket
//     stripe is all that orders the two.
//
// The hazard: the mutator validates its sample of the bucket stripe, the
// privatizer — whose logged walk predates the mutator's ownership of the
// link words — then acquires that stripe, ticks first, finds
// wts == ValidTS+1 and commits without validating; the mutator ticks,
// validates only words it owns, and commits too, unlinking from (or
// inserting into) a chain that is already private. No schedule may then
// show a private walk whose length differs from PrivateList.Count, or a
// Map.Len that differs from the keys a transactional scan finds. With
// -tags privstm_semrevalidate_race the re-validation is compiled out and
// the explorer must find exactly that (`make explore-tds` runs both
// halves).
// privOvertakePCT and privOvertakeRuns are the PCT corpus both halves of
// the pair run: same seeds, same depth, same count, so "passes here, fails
// there" compares like with like.
var privOvertakePCT = sched.Config{Seed: 1, ChangePoints: 2, Horizon: 40}

const privOvertakeRuns = 1600

func privOvertakeProgram(alg stm.Algorithm, put bool) (sched.Config, []func()) {
	s := stm.MustNew(stm.Config{
		Algorithm: alg, HeapWords: 1 << 12, OrecCount: 1 << 8,
		MaxThreads: 4, MaxAttempts: -1,
	})
	m, err := NewMap(s, 1, 1)
	if err != nil {
		panic(err)
	}
	seed := s.MustNewThread()
	if err := seed.Atomic(func(tx *stm.Tx) {
		for k := stm.Word(10); k <= 30; k += 10 {
			m.Put(tx, k, 100+k)
		}
	}); err != nil {
		panic(err)
	}
	pth := s.MustNewThread()
	mth := s.MustNewThread()
	var bad error
	privatizer := func() {
		pl, err := m.PrivateSnapshot(pth, 0)
		if err != nil {
			bad = err
			return
		}
		n := 0
		pl.EachKV(func(k, v stm.Word) bool {
			if v != 100+k {
				bad = fmt.Errorf("privatization violation: private walk read key %d with value %d", k, v)
			}
			n++
			return true
		})
		if n != pl.Count {
			bad = fmt.Errorf("privatization violation: private walk visited %d nodes, the privatizing transaction counted %d", n, pl.Count)
		}
	}
	mutator := func() {
		_ = mth.Atomic(func(tx *stm.Tx) {
			if put {
				m.Put(tx, 15, 115)
			} else {
				m.Delete(tx, 20)
			}
		})
	}
	atEnd := func() error {
		if bad != nil {
			return bad
		}
		var size, found int
		if err := seed.Atomic(func(tx *stm.Tx) {
			size, found = m.Len(tx), 0
			for k := stm.Word(10); k <= 30; k += 5 {
				if _, ok := m.Get(tx, k); ok {
					found++
				}
			}
		}); err != nil {
			return err
		}
		if size != found {
			return fmt.Errorf("privatization violation: Map.Len %d, transactional scan found %d keys", size, found)
		}
		return nil
	}
	return sched.Config{AtEnd: atEnd}, []func(){privatizer, mutator}
}
