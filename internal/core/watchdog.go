// watchdog.go is the fence stall watchdog: a progress-based detector that
// fires when the transaction blocking a fence has made no observable
// progress for StallThreshold backoff rounds. Detection is diagnostic only
// — the fence keeps waiting (breaking out would be unsound; see
// CORRECTNESS.md §9) — but it turns a silent livelock into a counted,
// reported event, and drops the wait loop's sleep cap so subsequent checks
// run at diagnostic frequency.
package core

import (
	"log"
	"time"

	"privstm/internal/spin"
)

// DefaultStallThreshold is the number of no-progress backoff rounds before
// the watchdog fires (Options.StallThreshold = 0). At the default backoff
// schedule this corresponds to tens of milliseconds of wall-clock wait —
// far beyond any healthy fence dwell, but fast enough for tests.
const DefaultStallThreshold = 64

// stallSleepCap bounds the fence backoff's sleep requests once a stall has
// been detected, so the fence asks to poll the blocker every 64µs instead of
// every 1024µs. It is a request: where the host timer rounds every sleep up
// to about a millisecond (spin's package comment), the poll interval stays
// at that floor and the cap changes nothing.
const stallSleepCap = 64 * time.Microsecond

// Fence names reported in StallInfo.Fence.
const (
	FencePrivatization = "privatization"
	FenceValidation    = "validation"
)

// StallInfo describes a detected fence stall; it is passed to
// Options.OnStall (stm.Config.OnStall).
type StallInfo struct {
	// Fence is FencePrivatization or FenceValidation.
	Fence string
	// WaiterID is the thread stuck at the fence.
	WaiterID uint64
	// BlockerID is the thread whose unmoving transaction blocks the fence,
	// or -1 when it could not be identified (the privatization fence waits
	// on a tracker watermark, not a thread; the scan that maps the
	// watermark back to a thread can miss).
	BlockerID int64
	// BlockerBegin is the blocker's begin timestamp (the watermark value
	// for the privatization fence).
	BlockerBegin uint64
	// Bound is what the fence is waiting for: the threshold the oldest
	// begin must exceed (privatization) or the commit time every reader
	// must validate past (validation).
	Bound uint64
	// Rounds is the number of consecutive no-progress backoff rounds
	// observed when the watchdog fired.
	Rounds int
}

// stallLimit resolves Options.StallThreshold: 0 means the default,
// negative disables the watchdog.
func (rt *Runtime) stallLimit() int {
	switch {
	case rt.StallThreshold < 0:
		return 0
	case rt.StallThreshold == 0:
		return DefaultStallThreshold
	default:
		return rt.StallThreshold
	}
}

// notifyStall delivers info to the configured callback, defaulting to a
// once-per-stall log line.
func (rt *Runtime) notifyStall(info StallInfo) {
	if rt.OnStall != nil {
		rt.OnStall(info)
		return
	}
	log.Printf("privstm: %s fence stalled: waiter=%d blocker=%d begin=%d bound=%d rounds=%d",
		info.Fence, info.WaiterID, info.BlockerID, info.BlockerBegin, info.Bound, info.Rounds)
}

// stallWatch tracks one fence wait's blocker identity across backoff
// rounds. A blocker is identified by (thread ID, publication sequence,
// begin timestamp): the sequence number disambiguates successive
// transactions that begin at the same clock value (the clock ticks only
// when a writer commits or aborts), so a thread that finishes and
// immediately starts a new same-timestamp transaction counts as progress. An unidentified blocker
// (id -1) is tracked by timestamp alone — conservative in the firing
// direction only.
type stallWatch struct {
	blockerID    int64
	blockerSeq   uint64
	blockerBegin uint64
	rounds       int
	fired        bool
}

// observe records one backoff round spent waiting on the given blocker and
// fires the watchdog when the identity survives the threshold. It adjusts
// b's sleep cap: capped while a stall is active, default otherwise.
func (w *stallWatch) observe(t *Thread, fence string, blockerID int64, blockerSeq, blockerBegin, bound uint64, b *spin.Backoff) {
	limit := t.RT.stallLimit()
	if limit == 0 {
		return
	}
	if w.rounds == 0 || blockerID != w.blockerID || blockerSeq != w.blockerSeq || blockerBegin != w.blockerBegin {
		// New blocker (or first round): restart the progress clock and
		// restore the default wait schedule.
		w.blockerID, w.blockerSeq, w.blockerBegin = blockerID, blockerSeq, blockerBegin
		w.rounds = 1
		if w.fired {
			w.fired = false
			b.ResetSleepCap()
			b.Reset()
		}
		return
	}
	w.rounds++
	if w.rounds >= limit && !w.fired {
		w.fired = true
		b.SetSleepCap(stallSleepCap)
		t.Stats.FenceStalls++
		t.RT.notifyStall(StallInfo{
			Fence:        fence,
			WaiterID:     t.ID,
			BlockerID:    blockerID,
			BlockerBegin: blockerBegin,
			Bound:        bound,
			Rounds:       w.rounds,
		})
	}
}

// blockerFor scans the thread registry for a published-active transaction
// with begin timestamp ts, returning its identity for stall tracking, or
// (-1, 0) if none matches (the tracker watermark can momentarily lead or
// lag the publication word).
func (rt *Runtime) blockerFor(ts uint64) (id int64, seq uint64) {
	id, seq = -1, 0
	rt.ForEachThread(func(u *Thread) {
		if id >= 0 {
			return
		}
		if begin, active := u.Published(); active && begin == ts {
			id, seq = int64(u.ID), u.BeginSeq()
		}
	})
	return id, seq
}
