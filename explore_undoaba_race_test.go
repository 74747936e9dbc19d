//go:build privstm_undoaba_race

package stm

import (
	"strings"
	"testing"
	"time"

	"privstm/internal/sched"
)

// TestUndoABAScheduleFindsHole is the positive control of
// TestUndoABASchedule. This build restores the exact pre-acquisition owner
// word on abort (core/abortrelease_undoaba_race.go), so on the four
// undo-log engines — pvrWriterOnly's invisible read-only mode included —
// R's post-check passes on the value W wrote in place, and R commits it to
// b after W's abort put 7 back into a. The redo-log engines never write in
// place, so their R reads 7 however the abort releases.
//
// Run via `make explore`:
//
//	go test -tags privstm_undoaba_race -run TestUndoABAScheduleFindsHole -v .
func TestUndoABAScheduleFindsHole(t *testing.T) {
	undo := map[Algorithm]bool{PVRBase: true, PVRCAS: true, PVRStore: true, PVRWriterOnly: true}
	for _, alg := range Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			a, b := undoABASchedule(t, alg)
			switch {
			case undo[alg] && (a != 7 || b != 42):
				t.Errorf("a = %d, b = %d, want 7 and the aborted 42", a, b)
			case !undo[alg] && (a != 7 || b != 7):
				t.Errorf("a = %d, b = %d, want both 7", a, b)
			}
		})
	}
}

// TestExploreFindsUndoABA: under this build the explorer must find the
// aborted-write read on rmwProgram on every undo engine, reported by the
// serializability oracle as a read of a value no committed transaction
// wrote, and the failing trace must replay.
func TestExploreFindsUndoABA(t *testing.T) {
	for _, alg := range undoAlgos {
		t.Run(alg.String(), func(t *testing.T) {
			mk := func() (sched.Config, []func()) { return rmwProgram(alg) }
			res, n := sched.ExplorePCT(undoABAPCT, undoABARuns, mk)
			if res == nil {
				t.Fatalf("explorer missed the aborted-write read in %d schedules", n)
			}
			if !strings.Contains(res.Err.Error(), "with no writer") {
				t.Fatalf("found a different failure: %v", res.Err)
			}
			replay := strings.Replace(replayLine("rmw", alg, res.Trace), "go test", "go test -tags privstm_undoaba_race", 1)
			t.Logf("found in %d schedules (seed %d): %v\n  replay: %s", n, res.Seed, res.Err, replay)
			cfg, bodies := mk()
			if rep := sched.Replay(cfg, res.Trace, bodies...); rep.Err == nil || !strings.Contains(rep.Err.Error(), "with no writer") {
				t.Fatalf("replay of the failing trace did not reproduce: %v", rep.Err)
			}
		})
	}
}

// abortedWriteBudget bounds the stress below. Under -race on a 2-CPU host
// it found the hole within 0.2–2.3 s per engine; without -race, in up to
// 7.8 s.
const abortedWriteBudget = 10 * time.Second

// TestAbortedWriteStressFindsHole: under this build the -race stress of
// TestAbortedWriteStress finds a committed read of an aborted write on
// every undo engine within abortedWriteBudget.
func TestAbortedWriteStressFindsHole(t *testing.T) {
	for _, alg := range undoAlgos {
		t.Run(alg.String(), func(t *testing.T) {
			start := time.Now()
			for time.Since(start) < abortedWriteBudget {
				err := abortedWriteStress(t, alg, 4, 200*time.Millisecond)
				if err != nil && strings.Contains(err.Error(), "with no writer") {
					t.Logf("found after %v: %v", time.Since(start).Round(time.Millisecond), err)
					return
				}
				if err != nil {
					t.Fatalf("found a different failure: %v", err)
				}
			}
			t.Fatalf("no committed read of an aborted write in %v", abortedWriteBudget)
		})
	}
}
