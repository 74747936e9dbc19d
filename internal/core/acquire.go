package core

import (
	"privstm/internal/failpoint"
	"privstm/internal/orec"
)

// AcquireOrec attempts to take ownership of o for this transaction
// (§II-A): the orec must be consistent — unowned, with a write timestamp no
// newer than our snapshot's validity bound — and is then atomically marked
// owned. It
// reports success; on failure the transaction must abort (both readers and
// writers defer to prior concurrent writers). Re-acquiring an orec we
// already own succeeds without a second log entry.
func (t *Thread) AcquireOrec(o *orec.Orec) bool {
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
			t.Acq.Add(o, wts)
			failpoint.Eval(failpoint.OrecAcquired)
			return true
		}
		// Lost a race for the orec; re-examine the new value.
	}
}

// AcquireWriteSet acquires the orecs guarding every address in the redo
// log (commit-time locking, §IV). On failure it restores the orecs already
// taken and reports false.
func (t *Thread) AcquireWriteSet() bool {
	n := t.Redo.Len()
	for i := 0; i < n; i++ {
		o := t.RT.Orecs.For(t.Redo.At(i).Addr)
		if !t.AcquireOrec(o) {
			t.Acq.RestoreAll()
			t.Acq.Reset()
			return false
		}
	}
	return true
}
