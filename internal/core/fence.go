package core

import (
	"privstm/internal/failpoint"
	"privstm/internal/orec"
	"privstm/internal/spin"
)

// ReaderConflictScan is the writer-side half of partial visibility
// (§II-C, §II-E). For every orec the committing writer owns, it inspects
// the (rts, tid, multi) hint and decides whether a concurrent reader may
// have read the block:
//
//   - A hint is ignored if it is "self only": published by this very
//     transaction (tid matches and the rts is in our per-transaction
//     publication log) with the multiple-readers bit clear. This implements
//     §II-E's write-after-read exemption without the stale-hint hazard.
//
//   - Otherwise the hint signals a conflict iff a transaction that could
//     have published or been covered by it — begin ≤ rts — may still be
//     incomplete, i.e. iff rts ≥ the begin time of the oldest *other*
//     incomplete transaction on the central list.
//
// It returns the fence threshold t = max(conflicting rts) and whether any
// conflict was found. When adaptGrace is set, each conflicting orec's grace
// period is halved (§III-A's exponential decrease).
func (t *Thread) ReaderConflictScan(adaptGrace bool) (threshold uint64, conflict bool) {
	oldestOther, anyOther := t.RT.Active.OldestOtherBegin(t)
	if !anyOther {
		return 0, false
	}
	n := t.Acq.Len()
	for i := 0; i < n; i++ {
		o := t.Acq.At(i).Orec
		rts, tid, multi := orec.UnpackVis(o.Vis().Load())
		if tid == t.ID && !multi && t.publishedHere(o, rts) {
			continue // our own read, and provably nobody else's
		}
		if rts < oldestOther {
			continue // every covered reader has completed
		}
		conflict = true
		if rts > threshold {
			threshold = rts
		}
		if adaptGrace {
			t.Stats.GraceRaces += lowerGrace(o, t.RT.GraceStrategy)
		}
	}
	return threshold, conflict
}

// CapFence applies Options.CapFenceAtCommit to the threshold a conflict scan
// returned for a commit at wts: with the knob set, a threshold reaching the
// commit time is cut to wts−1, so the fence waits for the transactions that
// began before the commit's tick and for nothing else (the argument is on
// the option; the §II-D future-work optimization).
func (rt *Runtime) CapFence(threshold, wts uint64) uint64 {
	if rt.CapFenceAtCommit && threshold >= wts {
		return wts - 1
	}
	return threshold
}

// PrivatizationFence blocks the committing writer until every transaction
// that may have read its write set has completed — concretely, until the
// oldest incomplete transaction on the central list began after the fence
// threshold (§II-D). The caller must have removed itself from the list
// first. With grace periods the threshold can lie beyond the commit time,
// reproducing the paper's "extended delays" downside.
// The fence never breaks out on a stall — that would be unsound — but a
// progress watchdog (watchdog.go) counts and reports blockers that stop
// moving, so a stalled or dead reader turns into a diagnosed event rather
// than a silent hang.
func (t *Thread) PrivatizationFence(threshold uint64) {
	t.Stats.Fenced++
	// Under the deferred clock modes the global clock can sit at or below
	// the threshold (a commit there does not advance it). Move it past the
	// threshold before waiting: otherwise a steady stream of readers
	// beginning at the stale global time could hold the fence open forever,
	// since no new begin could ever exceed the threshold.
	t.NoteFutureWTS(threshold + 1)
	failpoint.Eval(failpoint.FenceEnter)
	defer failpoint.Eval(failpoint.FenceExit)
	var b spin.Backoff
	var w stallWatch
	for {
		oldest, any := t.RT.Active.OldestBegin()
		if !any || oldest > threshold {
			return
		}
		failpoint.Eval(failpoint.FencePrivWait)
		if t.RT.stallLimit() > 0 {
			// The tracker watermark names a timestamp, not a thread; map it
			// back through the registry for the stall report (best effort).
			id, seq := t.RT.blockerFor(oldest)
			w.observe(t, FencePrivatization, id, seq, oldest, threshold, &b)
		}
		t.Stats.FenceSpins++
		b.Wait()
	}
}

// ValidationFence is the every-transaction fence of the Val system
// (TR-915, compared in §V): after its write-back completes at commit time
// wts, the writer waits until every other registered thread has reached a
// clean point with respect to that commit — it has no live transaction, or
// its transaction began after wts, or it has published a successful full
// read-set validation at time ≥ wts (at which point it either noticed the
// conflict and died, or provably does not overlap the writer).
// Like the privatization fence it carries a stall watchdog: per blocking
// thread, keyed on that thread's publication sequence so a same-timestamp
// restart counts as progress.
func (t *Thread) ValidationFence(wts uint64) {
	t.Stats.Fenced++
	// Deferred clock modes: raise the global clock to the commit time
	// before waiting. Concurrent readers' incremental polls fire on the
	// movement and publish validations at ≥ wts (or die trying), which is
	// the very condition this fence waits for — without the advance their
	// polls would never trigger and the fence would spin until each
	// reader's transaction ended.
	t.NoteFutureWTS(wts)
	failpoint.Eval(failpoint.FenceEnter)
	defer failpoint.Eval(failpoint.FenceExit)
	var b spin.Backoff
	t.RT.ForEachThread(func(u *Thread) {
		if u == t {
			return
		}
		b.Reset()
		b.ResetSleepCap() // clear any stall cap left by the previous thread's loop
		var w stallWatch
		for {
			begin, active := u.Published()
			if !active || begin >= wts || u.ValidatedAt() >= wts {
				return
			}
			failpoint.Eval(failpoint.FenceValWait)
			w.observe(t, FenceValidation, int64(u.ID), u.BeginSeq(), begin, wts, &b)
			t.Stats.FenceSpins++
			b.Wait()
		}
	})
}
