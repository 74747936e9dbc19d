package bench

import (
	"errors"
	"testing"

	stm "privstm"
	"privstm/internal/heap"
	"privstm/internal/rng"
)

// TestSoakReclaimCompletesWhereLeakExhausts is the regression the reclaimer
// was built for: a churn workload on a heap sized well below its cumulative
// allocation volume. Without recycling the run would exhaust the address
// space partway through; with the epoch reclaimer the same quota on the
// same heap completes, because every unlinked node flows back through
// retire→collect→reuse. The control comes from the reclaimer's own
// counters: the node words it freed for reuse plus the words still live
// exceed the heap, so the run could not have finished on fresh space alone.
func TestSoakReclaimCompletesWhereLeakExhausts(t *testing.T) {
	spec := Hashtable(16, 64)
	// Live data is ~150 words (buckets + 64 keys × 2-word nodes); the
	// write-heavy quota below allocates ~4800 words cumulatively.
	spec.HeapWords = 2600
	// Keep the STM and structure Run builds, to read their counters after.
	var s *stm.STM
	var inst Instance
	build := spec.Build
	spec.Build = func(st *stm.STM, r *rng.RNG) (Instance, error) {
		s = st
		var err error
		inst, err = build(st, r)
		return inst, err
	}
	m, err := Run(spec, RunConfig{
		Algorithm: stm.PVRStore, Threads: 2, TxnsPerThread: 3000, Mix: WriteHeavy,
	})
	if err != nil {
		t.Fatalf("reclaim run: %v", err)
	}
	if want := uint64(2 * 3000); m.Ops != want {
		t.Fatalf("reclaim run completed %d ops, want %d", m.Ops, want)
	}
	if m.ReclaimCollects == 0 {
		t.Fatal("reclaim run reports 0 collection passes")
	}
	live := 16 + htNodeWords*inst.Size(s)
	freed := htNodeWords * int(s.ReclaimStats().Freed)
	t.Logf("freed %d + live %d node words against a %d-word heap", freed, live, spec.HeapWords)
	if freed+live <= spec.HeapWords {
		t.Fatalf("freed %d + live %d node words fit in the %d-word heap; grow the quota so the run needs reuse",
			freed, live, spec.HeapWords)
	}
}

// TestRunReturnsHeapExhaustion: a worker that runs the heap out of space
// stops, and Run returns the exhaustion as an error wrapping
// heap.ErrOutOfMemory rather than a measurement or a crash.
func TestRunReturnsHeapExhaustion(t *testing.T) {
	spec := Hashtable(16, 64)
	// The build takes ~82 words (16 buckets + 32 two-word nodes, block 0
	// reserved); insert-only traffic needs 64 more for the other 32 keys.
	spec.HeapWords = 120
	m, err := Run(spec, RunConfig{
		Algorithm: stm.PVRStore, Threads: 2, TxnsPerThread: 3000, Mix: Mix{InsertPct: 100},
	})
	if !errors.Is(err, heap.ErrOutOfMemory) {
		t.Fatalf("Run = %v, %v; want an error wrapping heap.ErrOutOfMemory", m, err)
	}
}

// TestBuildReturnsHeapExhaustion: a heap too small for the initial
// population makes Build, and so Run, return an error wrapping
// heap.ErrOutOfMemory instead of panicking.
func TestBuildReturnsHeapExhaustion(t *testing.T) {
	for _, spec := range []Spec{Hashtable(16, 64), BST(256), MultiList(4, 16)} {
		spec.HeapWords = 40
		m, err := Run(spec, RunConfig{Algorithm: stm.PVRCAS, Threads: 1, TxnsPerThread: 1})
		if !errors.Is(err, heap.ErrOutOfMemory) {
			t.Errorf("%s: Run = %v, %v; want an error wrapping heap.ErrOutOfMemory", spec.Name, m, err)
		}
	}
}
