package tds

import (
	"fmt"

	stm "privstm"
	"privstm/internal/sched"
)

// semLockExploreProgram is the schedule-exploration micro-program for the
// abstract-lock commit protocol (CORRECTNESS.md §15). It distills the
// hazard the stripe version bump exists to prevent:
//
//   - "reader" runs one transaction doing two weak Gets of the same key;
//     both reads are certified only by the key stripe — nothing enters the
//     word-level read set — so if a writer commits a new value between them
//     and the stripe release does not advance the version, the reader's
//     sample still validates and a torn pair of reads of one key becomes a
//     committed, externally visible history;
//   - "writer" commits two Puts of that key, each bumping the stripe on
//     release.
//
// On the production release (sem_release.go: version += 2) no schedule may
// let the reader commit v1 != v2: either the second sample or semPreCommit
// catches the moved stripe. With -tags privstm_semlock_race the bump is
// compiled out (release restores the pre-acquisition word) and the explorer
// must find the violation — the positive control proving the corpus can
// see a real abstract-lock bug (`make explore-tds` runs both halves).
func semLockExploreProgram(alg stm.Algorithm) (sched.Config, []func()) {
	s := stm.MustNew(stm.Config{
		Algorithm: alg, HeapWords: 1 << 12, OrecCount: 1 << 8,
		MaxThreads: 4, MaxAttempts: -1,
	})
	m, err := NewMap(s, 1, 1)
	if err != nil {
		panic(err)
	}
	seed := s.MustNewThread()
	if err := seed.Atomic(func(tx *stm.Tx) { m.Put(tx, 1, 100) }); err != nil {
		panic(err)
	}
	rth := s.MustNewThread()
	wth := s.MustNewThread()
	var torn error
	reader := func() {
		var v1, v2 stm.Word
		err := rth.Atomic(func(tx *stm.Tx) {
			v1, _ = m.Get(tx, 1)
			sched.Point("tds/test/between-gets")
			v2, _ = m.Get(tx, 1)
		})
		if err == nil && v1 != v2 {
			torn = fmt.Errorf(
				"semantic-lock serializability violation: one committed transaction read %d then %d from one key", v1, v2)
		}
	}
	writer := func() {
		for i := stm.Word(0); i < 2; i++ {
			_ = wth.Atomic(func(tx *stm.Tx) { m.Put(tx, 1, 200+i) })
			sched.Point("tds/test/between-puts")
		}
	}
	return sched.Config{AtEnd: func() error { return torn }}, []func(){reader, writer}
}
