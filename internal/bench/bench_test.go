package bench

import (
	"strings"
	"testing"
	"time"

	stm "privstm"
	"privstm/internal/rng"
)

// smallSpecs returns CI-sized versions of the three structures.
func smallSpecs() []Spec {
	return []Spec{
		Hashtable(64, 256),
		BST(1 << 12),
		MultiList(16, 32),
	}
}

func TestWorkloadsSequential(t *testing.T) {
	// Drive each structure single-threaded against every algorithm and
	// validate the structure afterwards.
	for _, spec := range smallSpecs() {
		for _, alg := range StandardCurves {
			t.Run(spec.Name+"/"+alg.String(), func(t *testing.T) {
				m, err := Run(spec, RunConfig{
					Algorithm: alg, Threads: 1, Mix: WriteHeavy, TxnsPerThread: 2000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if m.Ops != 2000 {
					t.Errorf("ops = %d, want 2000", m.Ops)
				}
				if m.Throughput <= 0 {
					t.Error("throughput not positive")
				}
			})
		}
	}
}

func TestWorkloadsConcurrent(t *testing.T) {
	for _, spec := range smallSpecs() {
		for _, alg := range StandardCurves {
			t.Run(spec.Name+"/"+alg.String(), func(t *testing.T) {
				m, err := Run(spec, RunConfig{
					Algorithm: alg, Threads: 6, Mix: WriteHeavy, TxnsPerThread: 500,
				})
				if err != nil {
					t.Fatal(err) // includes the post-run structural check
				}
				if m.Ops != 6*500 {
					t.Errorf("ops = %d, want %d", m.Ops, 6*500)
				}
			})
		}
	}
}

// TestWorkloadModel cross-checks each structure against a set model under a
// deterministic single-threaded operation stream: seed the model from Dump,
// replay the operation RNG stream against the model, and compare final key
// sets exactly.
func TestWorkloadModel(t *testing.T) {
	type built struct {
		name string
		spec Spec
		keys int
	}
	cases := []built{
		{"hashtable", Hashtable(8, 64), 64},
		{"bst", BST(256), 256},
		{"multilist", MultiList(4, 16), 4 * 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := stm.MustNew(stm.Config{HeapWords: c.spec.HeapWords, OrecCount: 256, Algorithm: stm.PVRStore})
			inst, err := c.spec.Build(s, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			model := make(map[uint64]bool)
			for _, k := range inst.Dump(s) {
				model[k] = true
			}
			th := s.MustNewThread()
			ctx := &OpCtx{Th: th, RNG: rng.New(2), S: s}
			// mr replays the exact RNG stream Op consumes (one Intn, one
			// Pct per operation, in that order).
			mr := rng.New(2)
			for i := 0; i < 5000; i++ {
				k := uint64(mr.Intn(c.keys))
				p := mr.Pct()
				inst.Op(ctx, WriteHeavy)
				switch {
				case p < WriteHeavy.InsertPct:
					model[k] = true
				case p < WriteHeavy.InsertPct+WriteHeavy.DeletePct:
					delete(model, k)
				}
			}
			if err := th.Close(); err != nil {
				t.Fatal(err)
			}
			if err := inst.Check(s); err != nil {
				t.Fatalf("structural check: %v", err)
			}
			got := inst.Dump(s)
			if len(got) != len(model) {
				t.Fatalf("size = %d, model = %d", len(got), len(model))
			}
			for _, k := range got {
				if !model[k] {
					t.Errorf("structure holds key %d not in model", k)
				}
			}
		})
	}
}

// TestSpecSizing pins the names and sizes the benchmark module and the
// figure labels depend on, including the paper's defaults for zero
// arguments.
func TestSpecSizing(t *testing.T) {
	cases := []struct {
		spec      Spec
		name      string
		heapWords int
		orecs     int
	}{
		{Hashtable(64, 256), "hashtable 64b/256k", 18432, 4096},
		{Hashtable(0, 0), "hashtable 64b/256k", 18432, 4096},
		{MultiList(64, 512), "multi-list 64x512", 278528, 16384},
		{MultiList(64, 64), "multi-list 64x64", 49152, 16384},
		{MultiList(0, 0), "multi-list 64x64", 49152, 16384},
	}
	for _, c := range cases {
		if c.spec.Name != c.name || c.spec.HeapWords != c.heapWords || c.spec.OrecCount != c.orecs {
			t.Errorf("spec = %q, %d heap words, %d orecs; want %q, %d, %d",
				c.spec.Name, c.spec.HeapWords, c.spec.OrecCount, c.name, c.heapWords, c.orecs)
		}
	}
}

func TestFigureIndexComplete(t *testing.T) {
	want := []string{"3a", "3b", "3c", "3d", "3e", "3f", "3g", "3h", "4a", "4c", "4e", "4g", "t1"}
	got := FigureIDs()
	if len(got) != len(want) {
		t.Fatalf("figure ids = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("figure %d = %s, want %s", i, got[i], want[i])
		}
	}
	if _, err := FigureByID("3a"); err != nil {
		t.Error(err)
	}
	if _, err := FigureByID("9z"); err == nil {
		t.Error("FigureByID(9z) should fail")
	}
}

func TestRunFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke is slow")
	}
	var sb strings.Builder
	fig, err := FigureByID("3a")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := RunFigure(&sb, fig, HarnessConfig{
		Threads: []int{1, 2}, TxnsPerThread: 300, Scale: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(StandardCurves)*2 {
		t.Errorf("measurements = %d, want %d", len(ms), len(StandardCurves)*2)
	}
	out := sb.String()
	for _, alg := range StandardCurves {
		if !strings.Contains(out, alg.String()) {
			t.Errorf("output missing curve %s:\n%s", alg, out)
		}
	}
}

func TestParseThreads(t *testing.T) {
	got, err := ParseThreads("1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Errorf("ParseThreads = %v, %v", got, err)
	}
	if _, err := ParseThreads("1,x"); err == nil {
		t.Error("ParseThreads(1,x) should fail")
	}
	if _, err := ParseThreads("0"); err == nil {
		t.Error("ParseThreads(0) should fail")
	}
}

func TestMixString(t *testing.T) {
	if ReadMostly.String() != "10/10/80" {
		t.Errorf("ReadMostly = %s", ReadMostly)
	}
	if WriteHeavy.LookupPct() != 20 {
		t.Errorf("WriteHeavy lookups = %d", WriteHeavy.LookupPct())
	}
}

func TestDurationMode(t *testing.T) {
	m, err := Run(Hashtable(16, 64), RunConfig{
		Algorithm: stm.Ord, Threads: 2, Mix: ReadMostly, Duration: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ops == 0 {
		t.Error("duration mode performed no operations")
	}
}
