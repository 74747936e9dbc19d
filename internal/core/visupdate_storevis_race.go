//go:build privstm_storevis_race

package core

import (
	"sync"
	"sync/atomic"

	"privstm/internal/failpoint"
	"privstm/internal/orec"
	"privstm/internal/spin"
)

// This build puts the paper's §III-B store-only protocol in place of
// visupdate.go's compare-and-swap, on every visible engine. It is unsound
// as implemented (CORRECTNESS.md §4) and exists as the positive control of
// the explorer's store-cover corpus (TestExploreFindsStoreProtocolCoverageLoss).

// claims maps each orec to its curr_reader word (Fig. 2e), which the
// record itself does not carry. 0 means unclaimed; a claim is thread ID+1.
var claims sync.Map // *orec.Orec → *atomic.Uint64

func currReader(o *orec.Orec) *atomic.Uint64 {
	c, ok := claims.Load(o)
	if !ok {
		c, _ = claims.LoadOrStore(o, new(atomic.Uint64))
	}
	return c.(*atomic.Uint64)
}

// visUpdater makes MakeVisible's updates with the store protocol. After a
// failed attempt (mustMulti) our own store may have replaced a racer's
// hint, so the retry trusts no single-reader hint and carries the multi bit.
type visUpdater struct{ mustMulti bool }

func (u *visUpdater) raced() bool { return u.mustMulti }

// update runs one attempt of the protocol:
//
//  1. wait for curr_reader to be clear;
//  2. claim it with a plain store of our ID;
//  3. re-check that the vis word still holds v, else withdraw and fail;
//  4. store nv;
//  5. fail if curr_reader no longer holds our ID (a racer overlapped us).
//
// Step 4 is the hole: by the time step 5 sees the overlap, a stale store
// may already have replaced the racer's newer hint.
func (u *visUpdater) update(t *Thread, o *orec.Orec, v, nv uint64) bool {
	curr := currReader(o)
	var b spin.Backoff
	for curr.Load() != 0 {
		failpoint.Eval(failpoint.VisStoreWait)
		b.Wait()
	}
	failpoint.Eval(failpoint.VisStoreClaim)
	id := t.ID + 1
	curr.Store(id)
	ok := o.Vis().Load() == v
	if ok {
		failpoint.Eval(failpoint.VisStorePublish)
		o.Vis().Store(nv)
	}
	if curr.Load() == id {
		curr.Store(0)
		if ok {
			return true
		}
	}
	u.mustMulti = true
	return false
}
