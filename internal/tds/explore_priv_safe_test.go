//go:build !privstm_semrevalidate_race

package tds

import (
	"testing"

	stm "privstm"
	"privstm/internal/sched"
)

// TestPrivOvertakeExplorationCorpus runs the privatizer-versus-mutator
// micro-program's schedule corpus on the production commit protocol: with
// the stripe samples re-validated after the commit timestamp, no
// interleaving lets a Delete or Put commit into a bucket a PrivateSnapshot
// has detached. The in-place engine runs the whole PCT corpus the other
// half — TestPrivOvertakeCaught, built with
// -tags privstm_semrevalidate_race — must FAIL on; the other engine
// families (pvrWriterOnly, Val, and the ordered Ord and pvrHybrid) run its
// head, and a bounded DFS covers the schedules nearest the sequential ones.
func TestPrivOvertakeExplorationCorpus(t *testing.T) {
	for _, put := range []bool{false, true} {
		name := "delete"
		if put {
			name = "put"
		}
		for _, alg := range []stm.Algorithm{stm.PVRStore, stm.PVRWriterOnly, stm.Val, stm.Ord, stm.PVRHybrid} {
			runs := privOvertakeRuns
			if alg != stm.PVRStore {
				runs /= 8
			}
			t.Run(name+"/"+alg.String(), func(t *testing.T) {
				res, n := sched.ExplorePCT(privOvertakePCT, runs,
					func() (sched.Config, []func()) { return privOvertakeProgram(alg, put) })
				if res != nil {
					t.Errorf("schedule violation (seed %d, trace %v): %v", res.Seed, res.Trace, res.Err)
				}
				if n != runs {
					t.Errorf("explored %d schedules, want %d", n, runs)
				}
			})
		}
		t.Run(name+"/dfs", func(t *testing.T) {
			res, n := sched.ExploreDFS(sched.Config{}, 400,
				func() (sched.Config, []func()) { return privOvertakeProgram(stm.PVRStore, put) })
			if res != nil {
				t.Errorf("schedule violation (trace %v): %v", res.Trace, res.Err)
			}
			t.Logf("DFS covered %d schedule prefixes clean", n)
		})
	}
}
