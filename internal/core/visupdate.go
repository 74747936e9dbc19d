//go:build !privstm_storevis_race

package core

import "privstm/internal/orec"

// visUpdater makes MakeVisible's vis-word updates. Each is a
// compare-and-swap (§II-E), so a delayed update fails instead of landing
// over a newer hint, and a hint only ever moves to one that still covers
// every transaction the old one did (CORRECTNESS.md §4). The
// privstm_storevis_race build substitutes the §III-B store protocol.
type visUpdater struct{}

func (*visUpdater) update(_ *Thread, o *orec.Orec, v, nv uint64) bool {
	return o.Vis().CompareAndSwap(v, nv)
}

// raced reports whether a failed update may have left a stale hint behind.
// A failed compare-and-swap changes nothing.
func (*visUpdater) raced() bool { return false }
