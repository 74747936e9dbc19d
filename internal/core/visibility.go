package core

import (
	"fmt"
	"sync/atomic"

	"privstm/internal/failpoint"
	"privstm/internal/orec"
)

// Partial visibility — reader side (§II-B, §II-E, §III-A).
//
// MakeVisible publishes (or confirms) this transaction's interest in orec o.
// The cases:
//
//   - The orec's read timestamp already covers us (rts ≥ our begin time) and
//     either the multi-reader bit is set, or the hint is our own, or the
//     hint's publisher has certainly finished the transaction that published
//     it. Then we skip the update entirely: any writer of o will still fence,
//     because we remain on the central list with begin ≤ rts, and a hint
//     whose publishing transaction has completed can never be claimed by a
//     writer as "only my own read" (see the self-test in
//     readerConflictScan, which accepts a hint only if the writer itself
//     published it in its *current* transaction).
//
//   - We are covered but the hint belongs to a possibly-live foreign
//     transaction and the multi bit is clear: we must set the multi bit, or
//     the hint's owner could later write o and treat the hint as covering
//     only itself (§II-E's write-after-read hazard, from the other side).
//
//   - We are not covered: publish (now+G, us) and conservatively carry the
//     multi bit whenever a live transaction may have been covered by the
//     hint we overwrite, so writers keep fencing for it.
//
// The update itself is visUpdater's (visupdate.go): a compare-and-swap,
// or, in the privstm_storevis_race build, the §III-B store protocol that
// survives there as the schedule explorer's positive control.
func (t *Thread) MakeVisible(o *orec.Orec, useGrace bool) {
	rt := t.RT
	t.Stats.PVReads++
	var u visUpdater
	for {
		v := o.Vis().Load()
		rts, tid, multi := orec.UnpackVis(v)
		covered := rts >= t.BeginTS

		if covered && (multi || (!u.raced() && (tid == t.ID || !rt.ReaderMayBeLive(tid, rts)))) {
			t.Stats.PVSkipped++
			return
		}

		if covered {
			// Set only the multiple-readers bit.
			if u.update(t, o, v, v|1) {
				t.Stats.PVMultiSets++
				return
			}
			continue
		}

		// Full update: rts ← now+G, tid ← us.
		g := uint64(0)
		if useGrace {
			g = rt.Orecs.Grace(o).Load()
		}
		now := rt.Clock.Now()
		// Carry the multi bit if any live transaction may be covered by
		// the hint we are about to overwrite (its begin would be ≤ rts).
		oldB, anyActive := rt.Active.OldestBegin()
		nv := orec.PackVis(now+g, t.ID, u.raced() || (anyActive && oldB <= rts))
		failpoint.Eval(failpoint.VisSampled)
		if !u.update(t, o, v, nv) {
			continue
		}
		t.Stats.PVUpdates++
		t.VisPub.Add(o, orec.VisRTS(nv))
		if useGrace {
			t.Stats.GraceRaces += raiseGrace(rt.Orecs.Grace(o), rt.MaxGrace)
		}
		return
	}
}

// CheckCoverage is the schedule explorer's coverage oracle (CORRECTNESS.md
// §10): a hint this live transaction published must keep covering it —
// every (orec, rts) in VisPub must still read a vis rts ≥ BeginTS — because
// writers fence only for transactions that began at or before the rts they
// find. It is a necessary condition of the observational privatization-
// safety criterion (Khyzha et al., PAPERS.md): a reader whose coverage was
// lowered is one a privatizing writer may skip.
//
// Call with the thread quiescent — the explorer runs it with every worker
// suspended at a yield point. Threads without a live visible transaction
// vacuously pass (gate: the published-active bit, cleared by
// PublishInactive at transaction end — VisPub itself survives until the
// next Begin's ResetTxnState).
func (t *Thread) CheckCoverage() error {
	if !t.Visible {
		return nil
	}
	if _, active := t.Published(); !active {
		return nil
	}
	for i := 0; i < t.VisPub.Len(); i++ {
		e := t.VisPub.At(i)
		if now := orec.VisRTS(e.Orec.Vis().Load()); now < t.BeginTS {
			return fmt.Errorf("coverage: thread %d published rts %d on orec %d, which now reads rts %d < BeginTS %d",
				t.ID, e.RTS, t.RT.Orecs.Slot(e.Orec), now, t.BeginTS)
		}
	}
	return nil
}

// publishedHere reports whether (o, rts) is a hint published by the current
// transaction. The writer-side self-test consults the publication log: a
// hint may be treated as "my own read, no fence needed" only if it was
// published by the writer's current transaction. (Without this, a stale
// hint — whose rts can sit in the future when grace periods are on — could
// be claimed by the publisher's *next* transaction, silently skipping a
// fence another live reader depends on.)
func (t *Thread) publishedHere(o *orec.Orec, rts uint64) bool {
	return t.VisPub.Contains(o, rts)
}

// graceCASRetries bounds the grace adapters' compare-and-swap loops.
// Adaptation is a heuristic, so abandoning an update after a few lost
// races is harmless — but each *individual* update must be a real
// read-modify-write: the previous plain load-then-store could overwrite a
// concurrent adaptation with a value derived from a stale read, e.g. a
// racing raise and lower could leave the grace period *above* where either
// alone would have put it, and repeated races could walk it arbitrarily
// far from the adaptive equilibrium. Lost attempts (retried or abandoned)
// are counted in stats.GraceRaces so the ablation benchmarks can report
// how often adaptation actually contends.
const graceCASRetries = 4

// raiseGrace doubles an orec's grace period (its orec.Table.Grace word)
// after a successful visibility update, up to maxGrace: §III-A's
// exponential increase, the adaptation the paper settles on after trying
// linear steps and hybrids. It returns the number of CAS attempts lost to
// concurrent adapters (for stats.GraceRaces).
func raiseGrace(grace *atomic.Uint64, maxGrace uint64) (races uint64) {
	failpoint.Eval(failpoint.GraceRaise)
	for {
		g := grace.Load()
		ng := max(2*g, 1)
		if ng > maxGrace {
			ng = maxGrace
		}
		if ng == g || grace.CompareAndSwap(g, ng) {
			return races
		}
		if races++; races >= graceCASRetries {
			return races
		}
	}
}

// lowerGrace halves an orec's grace period when a writer detects a
// (possibly false-positive) reader conflict through that orec.
// Bounded-retry CAS like raiseGrace; returns the number of lost attempts.
func lowerGrace(grace *atomic.Uint64) (races uint64) {
	failpoint.Eval(failpoint.GraceLower)
	for {
		g := grace.Load()
		ng := g / 2
		if ng == g || grace.CompareAndSwap(g, ng) {
			return races
		}
		if races++; races >= graceCASRetries {
			return races
		}
	}
}
