package priv

import (
	"testing"

	stm "privstm"
)

// safePlain lists the algorithms whose privatization fences make the
// privatizer's plain (uninstrumented) accesses genuinely race-free; these
// run with plain private access, so `go test -race` doubles as a proof.
var safePlain = []stm.Algorithm{
	stm.Val, stm.PVRBase, stm.PVRCAS, stm.PVRStore,
}

// safeAtomic lists algorithms that are logically privatization-safe but —
// like the original systems they model, which rely on TSO hardware —
// physically overlap a doomed transaction's (discarded) loads with private
// stores: Ord relies on incremental validation rather than fences, and
// pvrWriterOnly/pvrHybrid fall back to validation for read-only or
// small-read-set transactions. Their checkers use atomic private access to
// keep the race detector out of the experiment; the logical invariants
// still must hold.
var safeAtomic = []stm.Algorithm{stm.Ord, stm.PVRWriterOnly, stm.PVRHybrid}

func testCfg(alg stm.Algorithm, atomicPriv bool) Config {
	return Config{
		Algorithm:     alg,
		Nodes:         24,
		Readers:       3,
		Iterations:    150,
		AtomicPrivate: atomicPriv,
		TornWindow:    true,
	}
}

func TestPrivatizationSafeEngines(t *testing.T) {
	for _, alg := range safePlain {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := Run(testCfg(alg, false))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v: %v", alg, res)
			if !res.Clean() {
				t.Errorf("privatization violation under %v: %v", alg, res)
			}
			if res.Privatizations == 0 {
				t.Error("stressor made no progress")
			}
		})
	}
}

func TestPrivatizationSafeOrderedEngines(t *testing.T) {
	for _, alg := range safeAtomic {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := Run(testCfg(alg, true))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v: %v", alg, res)
			if !res.Clean() {
				t.Errorf("privatization violation under %v: %v", alg, res)
			}
		})
	}
}

// TestTL2Baseline runs the stressor against the privatization-unsafe
// baseline. Violations are *possible* but scheduling-dependent, so the test
// only reports them; it demonstrates what the safe engines prevent.
func TestTL2Baseline(t *testing.T) {
	res, err := Run(testCfg(stm.TL2, true))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("TL2 (expected to be unsafe): %v", res)
	if !res.Clean() {
		t.Logf("TL2 exhibited the privatization problem, as the paper describes")
	}
}

// TestPrivatizationSafeWithAblations re-runs the safety assertions under
// the paper's spin-locked central list instead of the slot tracker, so the
// tracker can be A/B-compared without losing the safety net on either side.
func TestPrivatizationSafeWithAblations(t *testing.T) {
	run := func(alg stm.Algorithm, atomicPriv bool) {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := testCfg(alg, atomicPriv)
			cfg.Tracker = stm.TrackerList
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v+list: %v", alg, res)
			if !res.Clean() {
				t.Errorf("privatization violation under %v with ablations: %v", alg, res)
			}
		})
	}
	for _, alg := range safePlain {
		run(alg, false)
	}
	for _, alg := range safeAtomic {
		run(alg, true)
	}
}

// TestPrivatizationSafeWithExtensions re-runs the safety assertions with
// the future-work fence extension enabled: the commit-time fence-threshold
// cap. It changes *when* fences wait, never whether a needed fence is
// skipped.
func TestPrivatizationSafeWithExtensions(t *testing.T) {
	run := func(alg stm.Algorithm, atomicPriv bool) {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := testCfg(alg, atomicPriv)
			cfg.CapFenceAtCommit = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v+cap: %v", alg, res)
			if !res.Clean() {
				t.Errorf("privatization violation under %v with extensions: %v", alg, res)
			}
		})
	}
	for _, alg := range safePlain {
		run(alg, false)
	}
	for _, alg := range safeAtomic {
		run(alg, true)
	}
}
