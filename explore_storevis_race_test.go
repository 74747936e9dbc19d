//go:build privstm_storevis_race

package stm

import (
	"strings"
	"testing"

	"privstm/internal/sched"
)

// storeCoverTornTrace is a hand-placed schedule of storeCoverProgram on
// pvrStore (workers: 0 and 2 the readers, 1 the writer) that carries the
// lowered hint through to what it costs: reader 0 samples the clock; the
// writer commits its unrelated word; reader 2 begins, and the two readers'
// store-protocol updates of the flag's hint interleave so that reader 0's
// stale store lands last; reader 2 reads the flag and the first data word;
// the writer's privatizing commit then finds no hint covering reader 2,
// skips the fence, and rewrites the data while reader 2 is still live.
const storeCoverTornTrace = "0.0.0.0.1.1.1.1.1.1.1.1.1.1.1.1.1.1.2.2.2.2.0.0.2.2.2.2.2.2.2.2.2.2.2.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.1.1.1.1.1.1.2.2"

// TestExploreFindsStoreProtocolCoverageLoss is the positive control of the
// store-cover corpus (TestExploreStoreCover). This build tag substitutes
// the §III-B store protocol for the visibility compare-and-swap
// (core/visupdate_storevis_race.go), and that protocol is unsound as
// implemented (CORRECTNESS.md §4): a reader whose claim on curr_reader was
// overwritten can still complete its vis store after the overwriter's
// update succeeded, replacing the overwriter's hint with one whose rts is
// below the overwriter's begin time; the retry only ORs in the multi bit.
// The explorer must find the lowered hint through the coverage oracle, the
// failing trace must replay, and the hand-placed schedule must show the
// consequence — a doomed reader observing private data mid-rewrite — with
// the oracle off, and the oracle on the same schedule must stop it at the
// lowered hint first.
//
// Run via `make explore`:
//
//	go test -tags privstm_storevis_race -run TestExploreFindsStoreProtocolCoverageLoss -v .
func TestExploreFindsStoreProtocolCoverageLoss(t *testing.T) {
	mk := func() (sched.Config, []func()) { return storeCoverProgram(PVRStore) }
	res, n := sched.ExplorePCT(storeCoverPCT, storeCoverRuns, mk)
	if res == nil {
		t.Fatalf("explorer missed the lowered hint in %d schedules", n)
	}
	if !strings.Contains(res.Err.Error(), "coverage:") {
		t.Fatalf("found a different failure: %v", res.Err)
	}
	// Replay under this tag too: the default build lacks the store
	// protocol's yield points, so the trace diverges there.
	replay := strings.Replace(replayLine("storecover", PVRStore, res.Trace), "go test", "go test -tags privstm_storevis_race", 1)
	t.Logf("found in %d schedules (seed %d): %v\n  replay: %s", n, res.Seed, res.Err, replay)
	cfg, bodies := mk()
	if rep := sched.Replay(cfg, res.Trace, bodies...); rep.Err == nil || !strings.Contains(rep.Err.Error(), "coverage:") {
		t.Fatalf("replay of the failing trace did not reproduce: %v", rep.Err)
	}

	torn, err := sched.ParseTrace(storeCoverTornTrace)
	if err != nil {
		t.Fatal(err)
	}
	cfg, bodies = mk()
	cfg.OnStep = nil
	if rep := sched.Replay(cfg, torn, bodies...); rep.Err == nil || !strings.Contains(rep.Err.Error(), "privatization violation") {
		t.Fatalf("the hand-placed schedule did not reach the torn private read: %v", rep.Err)
	}
	cfg, bodies = mk()
	if rep := sched.Replay(cfg, torn, bodies...); rep.Err == nil || !strings.Contains(rep.Err.Error(), "coverage:") {
		t.Fatalf("the coverage oracle did not stop the hand-placed schedule at the lowered hint: %v", rep.Err)
	}
}
