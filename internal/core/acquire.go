package core

import (
	"privstm/internal/failpoint"
	"privstm/internal/orec"
)

// acquireOrec attempts to take ownership of o for this transaction
// (§II-A): the orec must be consistent — unowned, with a write timestamp no
// newer than our snapshot's validity bound — and is then atomically marked
// owned. It
// reports success; on failure the transaction must abort (both readers and
// writers defer to prior concurrent writers). Re-acquiring an orec we
// already own succeeds without a second log entry.
func (t *Thread) acquireOrec(o *orec.Orec) bool {
	for {
		v := o.Owner().Load()
		if orec.IsOwned(v) {
			return orec.OwnerTID(v) == t.ID
		}
		wts := orec.WTS(v)
		if wts > t.ValidTS {
			// Try to extend over the rival commit (redo engines acquire at
			// commit time, where an extension is still sound: ValidateReads
			// skips orecs we already own). If the snapshot cannot move,
			// abort — the clock already reads wts, so the retry begins past
			// it.
			if !t.TryExtend() {
				return false
			}
			continue // bound raised; re-examine the orec
		}
		if o.Owner().CompareAndSwap(v, orec.PackOwned(t.ID)) {
			noteAcquired(o, v)
			t.Acq.Add(o)
			failpoint.Eval(failpoint.OrecAcquired)
			return true
		}
		// Lost a race for the orec; re-examine the new value.
	}
}

// acquireWriteSet acquires the orecs guarding every address in the redo
// log (commit-time locking, §IV). On failure it reports false and keeps the
// orecs already taken: the commit fails, and Run's abort releases them.
func (t *Thread) acquireWriteSet() bool {
	n := t.Redo.Len()
	for i := 0; i < n; i++ {
		if !t.acquireOrec(t.RT.Orecs.For(t.Redo.At(i).Addr)) {
			return false
		}
	}
	return true
}
