//go:build privstm_undoaba_race

package core

import (
	"sync"

	"privstm/internal/failpoint"
	"privstm/internal/orec"
)

// This build restores each orec an aborted attempt owns to the exact owner
// word it held before the acquisition — the historical RestoreAll. It is
// unsound (CORRECTNESS.md §2): a reader that sampled that word, loaded an
// in-place write and post-checks after the rollback finds the word
// unchanged and returns the aborted value. It exists as the positive
// control of TestUndoABASchedule and the rmw exploration corpus.

// prevOwner maps each orec to the owner word it held before its current
// owner acquired it.
var prevOwner sync.Map // *orec.Orec → uint64

func noteAcquired(o *orec.Orec, v uint64) { prevOwner.Store(o, v) }

func (t *Thread) releaseAborted() {
	for i := 0; i < t.Acq.Len(); i++ {
		failpoint.Eval(failpoint.OrecRelease)
		o := t.Acq.At(i)
		v, _ := prevOwner.Load(o)
		o.Owner().Store(v.(uint64))
	}
}
