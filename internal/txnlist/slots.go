// Package txnlist tracks the set of incomplete transactions that
// privatization fences and epoch reclamation query (paper §II-C). It is not
// the paper's spin-locked, sorted central list but the "lighter weight
// implementation of the central list" the paper leaves as future work: a
// statically allocated, cache-line padded slot array indexed by thread ID,
// plus a cached, monotonically advancing oldest-begin watermark.
//
//   - Enter/Leave are single uncontended atomic stores into the thread's
//     own padded slot — no lock, no shared cache line.
//   - OldestBegin is, on the fast path, one atomic load of the cache word
//     plus one load of the cached holder's slot to revalidate it. The O(n)
//     slot scan runs only when the cached holder has exited (or re-entered
//     under a different timestamp), i.e. lazily.
//   - EnterAt (late joiners with old timestamps: pvrWriterOnly first
//     writes, pvrHybrid mode switches) lowers the cache before returning,
//     so a fence that starts after the joiner is registered can never
//     overlook it.
//
// Safety argument (the fence's lower-bound requirement) — see
// CORRECTNESS.md "Slot tracker watermark":
//
// The cache word packs (holder slot + 1, begin timestamp). Invariant: at
// every instant with no EnterAt in flight, either the cache's timestamp is
// ≤ the begin timestamp of every live registered transaction, or the
// cached holder's slot no longer matches the cached timestamp — in which
// case every reader falls back to the scan. (Mid-EnterAt — slot stored,
// lowering pending — the cache may transiently exceed the joiner's begin;
// that is fine because EnterAt's contract binds only queries that start
// after it returns.) All cache *writes* — EnterAt's lowering and the slow path's
// recompute publish — are serialized by a writer lock, and a joiner's slot
// is stored before it takes the lock. So a recompute's scan and publish
// can never interleave with a registration it must not miss: an EnterAt
// either completes before the recompute acquires the lock (its slot is
// visible to the scan) or runs after the publish (and then re-lowers the
// cache itself if the published value is above its timestamp). Detecting
// the interleaving with an optimistic publish CAS instead is unsound: a
// joiner whose timestamp is already covered would leave the word
// untouched, and even a version-stamped word can recur (ABA) once another
// recompute reinstalls the same minimum, letting a stale scan publish a
// watermark above a live joiner. A scan that misses a *concurrently
// entering* (fresh-timestamp) transaction is sound because Enter samples
// the begin timestamp after its slot is visible (see Enter): every holder
// such a scan can cache began no later than the entrant, and registration
// completes before the transaction publishes visibility hints or performs
// further reads, so only fences that start after registration must see it
// — and they do.
//
// Readers never take the lock: the fast path is two loads, and a reader
// that loses the fast path acquires the lock only to scan-and-publish.
package txnlist

import (
	"fmt"
	"sync/atomic"

	"privstm/internal/clock"
	"privstm/internal/spin"
)

const (
	// slotTSBits is the width of the timestamp half of the cache word.
	// Timestamps beyond 2^48 (≈ 9 years of continuous commits at one per
	// nanosecond) are truncated in the cache; truncation only ever lowers
	// the watermark, which is the safe direction, at the cost of the fast
	// path never validating again.
	slotTSBits = 48
	slotTSMask = uint64(1)<<slotTSBits - 1

	// MaxSlots is the largest slot count a Slots can track: the holder
	// index must fit in the cache word alongside the timestamp.
	MaxSlots = 1<<(64-slotTSBits) - 2
)

// slot is one thread's registration word, padded to a full cache line so
// that begins and ends on different threads never contend.
type slot struct {
	// v holds beginTS<<1 | 1 while the thread's transaction is incomplete,
	// 0 otherwise.
	v atomic.Uint64
	_ [7]uint64
}

// Slots is the slot-array tracker. Create with NewSlots.
type Slots struct {
	// cache is the oldest-begin watermark: (holder+1)<<slotTSBits | ts,
	// or 0 when no holder is cached (every query then scans).
	cache atomic.Uint64
	_     [7]uint64
	// hi is a high-water mark over entered slot indexes (+1): scans stop
	// there instead of walking the full capacity.
	hi atomic.Uint64
	_  [7]uint64
	// mu serializes every cache write (EnterAt's lowering, the slow-path
	// recompute publish); see the package comment for why optimistic CAS
	// publication is not enough. Fast-path readers never touch it.
	mu spin.Mutex
	_  [15]uint32
	// entering counts in-flight EnterAt registrations (slot stored, cache
	// lowering not yet complete). Only CheckWatermark consults it: inside
	// that window the cache may legitimately sit above the joiner's begin —
	// EnterAt's contract covers queries that start after it returns — so
	// the oracle must not flag the transient.
	entering atomic.Int64

	slots []slot
}

// NewSlots returns a tracker with capacity for n slots (thread IDs 0..n-1).
func NewSlots(n int) *Slots {
	if n < 1 || n > MaxSlots {
		panic(fmt.Sprintf("txnlist: slot count %d out of range [1, %d]", n, MaxSlots))
	}
	return &Slots{slots: make([]slot, n)}
}

// Cap returns the slot capacity.
func (s *Slots) Cap() int { return len(s.slots) }

func packCache(id int, ts uint64) uint64 {
	return uint64(id+1)<<slotTSBits | ts&slotTSMask
}

func unpackCache(c uint64) (id int, ts uint64) {
	return int(c>>slotTSBits) - 1, c & slotTSMask
}

// raiseHi publishes id as entered so scans cover it.
func (s *Slots) raiseHi(id int) {
	want := uint64(id + 1)
	for {
		h := s.hi.Load()
		if h >= want || s.hi.CompareAndSwap(h, want) {
			return
		}
	}
}

// Enter registers slot id with a fresh begin timestamp sampled from c and
// returns it. Unlike the paper's central list, no lock orders the clock sample
// against other begins: the tracker does not need sortedness, only that a
// transaction is visible with a timestamp no later than any datum it reads,
// which a pre-publication Now() guarantees.
//
// The begin timestamp is sampled only after the slot is visible: a
// recompute whose scan runs before the slot store caches a holder whose
// begin was sampled before that scan, and a begin sampled before the store
// could be older than that holder — the cache would then sit above a live
// registration until the holder left. So the slot is first stored with a
// provisional timestamp (a scan that sees it caches something no later than
// the final one, which is safe), and the final sample, taken after, is
// re-stored only in the rare case the clock moved in between.
func (s *Slots) Enter(id int, c *clock.Clock) uint64 {
	s.raiseHi(id)
	p := c.Now()
	s.slots[id].v.Store(p<<1 | 1)
	ts := c.Now()
	if ts != p {
		s.slots[id].v.Store(ts<<1 | 1)
	}
	return ts
}

// Leave deregisters slot id: one atomic store. If id was the cached holder
// the cache is left stale; the next oldest query notices the slot mismatch
// and recomputes (the "lazy recompute on holder exit" of the design).
func (s *Slots) Leave(id int) { s.slots[id].v.Store(0) }

// OldestBegin returns a lower bound on the begin timestamp of the oldest
// incomplete transaction, and whether any is incomplete. Fast path: two
// atomic loads (cache word, holder revalidation).
func (s *Slots) OldestBegin() (uint64, bool) { return s.oldest(-1) }

// OldestOtherBegin is OldestBegin excluding slot id. When the cached
// holder is some other slot the fast path still applies (the global
// minimum excluding self is ≥ the global minimum, so the cached value
// remains a valid lower bound); when the caller itself holds the cache the
// scan runs.
func (s *Slots) OldestOtherBegin(id int) (uint64, bool) { return s.oldest(id) }

// scanSlots walks every entered slot, returning the global minimum (for
// reinstalling the cache) and the minimum excluding skip (the query
// result). Shared by the locked recompute (slots_safe.go) and the
// historical unlocked one (slots_race.go).
func (s *Slots) scanSlots(skip int) (minTS uint64, minID int, oTS uint64, oAny bool) {
	n := int(s.hi.Load())
	minID = -1
	for i := 0; i < n; i++ {
		v := s.slots[i].v.Load()
		if v&1 == 0 {
			continue
		}
		ts := v >> 1
		if minID < 0 || ts < minTS {
			minTS, minID = ts, i
		}
		if i != skip && (!oAny || ts < oTS) {
			oTS, oAny = ts, true
		}
	}
	return minTS, minID, oTS, oAny
}

// CheckWatermark verifies the watermark-cache soundness invariant (package
// comment; CORRECTNESS.md "Slot tracker watermark"): whenever the cache is
// *valid* — its holder's slot still matches the cached timestamp — the
// cached timestamp is a lower bound on every live registration. The check
// is skipped while any EnterAt is in flight: between a joiner's slot store
// and its cache lowering the cache may transiently exceed the joiner's
// begin even under the locked write path (a recompute that finished before
// the joiner started is a plain sequential execution), and the invariant
// only binds queries that start after EnterAt returns. The schedule
// explorer calls it between steps, while every worker is suspended, so the
// loads form a consistent snapshot; a concurrent caller would only ever
// see a transient mismatch in the unsound direction and never a false pass
// turned failure.
func (s *Slots) CheckWatermark() error {
	if s.entering.Load() != 0 {
		return nil // a registration is mid-flight: transient by design
	}
	c := s.cache.Load()
	if c == 0 {
		return nil
	}
	h, cts := unpackCache(c)
	if h < 0 || h >= len(s.slots) {
		return fmt.Errorf("txnlist: watermark holder %d out of range", h)
	}
	if v := s.slots[h].v.Load(); v&1 == 0 || (v>>1)&slotTSMask != cts {
		return nil // stale cache: every reader falls back to the scan
	}
	n := int(s.hi.Load())
	for i := 0; i < n; i++ {
		v := s.slots[i].v.Load()
		if v&1 == 0 {
			continue
		}
		if ts := (v >> 1) & slotTSMask; ts < cts {
			return fmt.Errorf("txnlist: watermark %d (holder %d) above live slot %d begin %d", cts, h, i, ts)
		}
	}
	return nil
}

// cached attempts the lock-free fast path: use the cached watermark when
// there is a holder other than skip whose slot still matches. hit reports
// whether the fast path applied.
func (s *Slots) cached(skip int) (ts uint64, ok, hit bool) {
	c := s.cache.Load()
	if h, cts := unpackCache(c); c != 0 && h != skip {
		if v := s.slots[h].v.Load(); v&1 == 1 && (v>>1)&slotTSMask == cts {
			return cts, true, true
		}
	}
	return 0, false, false
}

// Len counts the incomplete transactions (tests and statistics).
func (s *Slots) Len() int {
	n := 0
	for i := 0; i < int(s.hi.Load()); i++ {
		if s.slots[i].v.Load()&1 == 1 {
			n++
		}
	}
	return n
}

// CachedHolder returns the slot index the watermark currently points at,
// or -1 if the cache is empty. Tests use it to pin fast-path behaviour.
func (s *Slots) CachedHolder() int {
	c := s.cache.Load()
	if c == 0 {
		return -1
	}
	id, _ := unpackCache(c)
	return id
}
