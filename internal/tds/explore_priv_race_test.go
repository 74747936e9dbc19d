//go:build privstm_semrevalidate_race

package tds

import (
	"strings"
	"testing"

	stm "privstm"
	"privstm/internal/sched"
)

// TestPrivOvertakeCaught is the positive control: with the post-timestamp
// stripe re-validation compiled out (this build tag substitutes
// core/sem_revalidate_race.go), the explorer must find a privatizer
// overtaken by the mutator in the very program whose corpus passes clean
// on the production protocol (TestPrivOvertakeExplorationCorpus) — for the
// Delete and for the Put variant — and each failing trace must reproduce
// under Replay. The schedule needs two well-placed preemptions (after the
// privatizer's walk, and between the mutator's sample check and its tick),
// which is PCT's home ground and out of a bounded DFS's reach.
//
// Run via `make explore-tds`:
//
//	go test -tags privstm_semrevalidate_race -run TestPrivOvertakeCaught -v ./internal/tds
func TestPrivOvertakeCaught(t *testing.T) {
	for _, put := range []bool{false, true} {
		name := "delete"
		if put {
			name = "put"
		}
		t.Run(name, func(t *testing.T) {
			mk := func() (sched.Config, []func()) { return privOvertakeProgram(stm.PVRStore, put) }
			res, n := sched.ExplorePCT(privOvertakePCT, privOvertakeRuns, mk)
			if res == nil {
				t.Fatalf("explorer missed the overtaken privatizer in %d schedules", n)
			}
			if !strings.Contains(res.Err.Error(), "privatization violation") {
				t.Fatalf("found a different failure: %v", res.Err)
			}
			t.Logf("caught in %d schedules (seed %d): %v\n  trace: %v", n, res.Seed, res.Err, res.Trace)

			cfg, bodies := mk()
			rep := sched.Replay(cfg, res.Trace, bodies...)
			if rep.Err == nil || !strings.Contains(rep.Err.Error(), "privatization violation") {
				t.Fatalf("replay of the failing trace did not reproduce: %v", rep.Err)
			}
		})
	}
}
