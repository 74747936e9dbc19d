//go:build !privstm_undoaba_race

package core

import "privstm/internal/orec"

// noteAcquired sees o's owner word v as it was before this transaction
// acquired o. The abort path does not need it; the privstm_undoaba_race
// build keeps it to restore on abort.
func noteAcquired(*orec.Orec, uint64) {}

// releaseAborted releases the orecs an aborted attempt owns at a fresh
// clock tick. Restoring the pre-acquisition word instead would let a reader
// that sampled it, loaded an in-place write and post-checked after the
// rollback accept the aborted value (CORRECTNESS.md §2).
func (t *Thread) releaseAborted() {
	t.Stats.ClockTicks++
	t.Acq.ReleaseAll(t.RT.Clock.Tick())
}
