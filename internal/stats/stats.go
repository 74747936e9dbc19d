// Package stats collects per-thread execution counters and derives the
// metrics the paper's Figure 4 reports: the percentage of writer
// transactions that hit the privatization fence, and the percentage of
// partial-visibility updates that readers were able to skip.
//
// Counters are plain (non-atomic) fields because each Counters value is
// owned by exactly one thread; harnesses aggregate after the threads join.
package stats

import "fmt"

// Counters accumulates one thread's event counts. The struct is padded to
// a multiple of the cache-line size so adjacent threads' counters never
// false-share.
type Counters struct {
	Commits               uint64 // transactions committed
	Aborts                uint64 // transactions aborted (then retried)
	WriterCommits         uint64 // committed transactions that performed ≥1 write
	ReadOnlyCommits       uint64 // committed transactions with no writes
	Fenced                uint64 // writer commits that waited at the privatization fence
	FenceSpins            uint64 // backoff iterations spent inside fences
	PVReads               uint64 // transactional reads executed in partially visible mode
	PVUpdates             uint64 // partial-visibility metadata updates performed
	PVSkipped             uint64 // partial-visibility updates skipped (read was covered)
	PVCacheHits           uint64 // skips resolved by the thread-local hint cache (no vis load)
	PVMultiSets           uint64 // updates that only set the multiple-readers bit
	Validations           uint64 // full read-set validations
	Extensions            uint64 // successful snapshot (timestamp) extensions
	OrderWaits            uint64 // commits that waited for strict-ordering turns
	StoreRaces            uint64 // retries of the store-only visibility protocol
	GraceRaces            uint64 // grace-adaptation CAS attempts lost to concurrent adapters
	ModeSwitches          uint64 // hybrid/writer-only transitions to visible mode
	Serialized            uint64 // commits via the serialized-irrevocable fallback
	FenceStalls           uint64 // stall-watchdog firings inside fences
	ClockTicks            uint64 // commit-path global-clock RMWs (one per writer commit)
	SandboxValidations    uint64 // validate-before-dangerous-use checkpoints executed
	SemanticSkips         uint64 // commuting (delta) updates applied without validation (internal/tds)
	AbstractLockConflicts uint64 // commit-time abstract-lock acquisitions or validations that failed
	WeakReads             uint64 // unlogged reads covered by abstract locks (Tx.LoadWeak)
	Ops                   uint64 // benchmark-level operations completed
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.Commits += o.Commits
	c.Aborts += o.Aborts
	c.WriterCommits += o.WriterCommits
	c.ReadOnlyCommits += o.ReadOnlyCommits
	c.Fenced += o.Fenced
	c.FenceSpins += o.FenceSpins
	c.PVReads += o.PVReads
	c.PVUpdates += o.PVUpdates
	c.PVSkipped += o.PVSkipped
	c.PVCacheHits += o.PVCacheHits
	c.PVMultiSets += o.PVMultiSets
	c.Validations += o.Validations
	c.Extensions += o.Extensions
	c.OrderWaits += o.OrderWaits
	c.StoreRaces += o.StoreRaces
	c.GraceRaces += o.GraceRaces
	c.ModeSwitches += o.ModeSwitches
	c.Serialized += o.Serialized
	c.FenceStalls += o.FenceStalls
	c.ClockTicks += o.ClockTicks
	c.SandboxValidations += o.SandboxValidations
	c.SemanticSkips += o.SemanticSkips
	c.AbstractLockConflicts += o.AbstractLockConflicts
	c.WeakReads += o.WeakReads
	c.Ops += o.Ops
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// PercentWritersFenced is Figure 4's left-hand metric: of all committed
// writer transactions, the share that detected a possible reader conflict
// and waited at the privatization fence.
func (c *Counters) PercentWritersFenced() float64 {
	return percent(c.Fenced, c.WriterCommits)
}

// PercentVisibleReadsSkipped is Figure 4's right-hand metric: of all reads
// executed in partially visible mode, the share that skipped the metadata
// update because an earlier reader's timestamp already covered them.
func (c *Counters) PercentVisibleReadsSkipped() float64 {
	return percent(c.PVSkipped, c.PVReads)
}

// AbortRate is aborts per attempted transaction.
func (c *Counters) AbortRate() float64 {
	return percent(c.Aborts, c.Commits+c.Aborts)
}

func percent(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// String summarizes the headline counters for debug output.
func (c *Counters) String() string {
	return fmt.Sprintf(
		"commits=%d aborts=%d writers=%d fenced=%.1f%% pvSkipped=%.1f%% validations=%d",
		c.Commits, c.Aborts, c.WriterCommits,
		c.PercentWritersFenced(), c.PercentVisibleReadsSkipped(), c.Validations)
}
