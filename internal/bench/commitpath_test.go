package bench

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	stm "privstm"
	"privstm/internal/rng"
)

// TestRunConfigAblations drives the workload under the paper's central-list
// tracker, the registry-scan tracker and the slot-tracker default, checking
// each produces correct structures and full operation counts.
func TestRunConfigAblations(t *testing.T) {
	spec := MultiList(16, 32)
	for _, tc := range []struct {
		name string
		rc   RunConfig
	}{
		{"slot+extend", RunConfig{}},
		{"list+extend", RunConfig{Tracker: stm.TrackerList}},
		{"scan+extend", RunConfig{Tracker: stm.TrackerScan}},
	} {
		for _, alg := range []stm.Algorithm{stm.Ord, stm.PVRStore, stm.PVRHybrid} {
			t.Run(tc.name+"/"+alg.String(), func(t *testing.T) {
				rc := tc.rc
				rc.Algorithm = alg
				rc.Threads = 4
				rc.Mix = WriteHeavy
				rc.TxnsPerThread = 500
				m, err := Run(spec, rc)
				if err != nil {
					t.Fatal(err)
				}
				if m.Ops != 4*500 {
					t.Errorf("ops = %d, want %d", m.Ops, 4*500)
				}
			})
		}
	}
}

// TestExtensionAvoidsAbort pins the behavior the extension buys with a
// deterministic interleaving: reader samples word a, a writer commits to
// an unrelated word b (advancing the clock), then the reader loads b. The
// stale read must extend-and-continue, never abort.
func TestExtensionAvoidsAbort(t *testing.T) {
	t.Run("extend", func(t *testing.T) {
		s := stm.MustNew(stm.Config{
			Algorithm: stm.Ord, HeapWords: 512, OrecCount: 256, MaxThreads: 4,
		})
		words := s.MustAlloc(256)
		a, b := words, words+128
		reader := s.MustNewThread()
		writer := s.MustNewThread()
		wrote := false
		err := reader.Atomic(func(tx *stm.Tx) {
			_ = tx.Load(a)
			if !wrote {
				wrote = true
				if werr := writer.Atomic(func(wx *stm.Tx) { wx.Store(b, 7) }); werr != nil {
					tx.Cancel(werr)
				}
			}
			if got := tx.Load(b); got != 7 {
				t.Errorf("read %d from b, want 7", got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := reader.Stats(); st.Aborts != 0 || st.Extensions != 1 {
			t.Errorf("aborts=%d extensions=%d, want aborts=0 extensions=1", st.Aborts, st.Extensions)
		}
	})
}

// TestJSONRoundTripAndCompare exercises the baseline-file workflow end to
// end: write two measurement sets, compare them, and check the delta math.
func TestJSONRoundTripAndCompare(t *testing.T) {
	dir := t.TempDir()
	mk := func(path, label string, tput float64) {
		ms := []*Measurement{{
			Fig: "3e", Workload: "multi-list 16x32", Algorithm: "Ord",
			Threads: 2, Mix: ReadMostly, Ops: 1000,
			Elapsed: time.Second, Throughput: tput,
		}}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(f, label, ms); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	mk(oldPath, "baseline", 1000)
	mk(newPath, "candidate", 1200)

	label, cells, err := ReadJSON(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	if label != "baseline" || len(cells) != 1 || cells[0].Throughput != 1000 {
		t.Fatalf("round trip lost data: label=%q cells=%+v", label, cells)
	}

	var buf strings.Builder
	worst, err := Compare(&buf, oldPath, newPath)
	if err != nil {
		t.Fatal(err)
	}
	if worst < 19.9 || worst > 20.1 {
		t.Errorf("worst delta = %.2f%%, want +20%%", worst)
	}
	out := buf.String()
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "+20.0%") {
		t.Errorf("compare output missing expected fields:\n%s", out)
	}
}

// BenchmarkCommitPath is the CI smoke benchmark for the commit path: the
// paper's short-transaction workload under each tracker. Regressions in the
// oldest-begin fast path show up here directly.
func BenchmarkCommitPath(b *testing.B) {
	spec := Hashtable(64, 256)
	for _, tr := range []struct {
		name    string
		tracker stm.TrackerKind
	}{{"slot", stm.TrackerSlot}, {"list", stm.TrackerList}, {"scan", stm.TrackerScan}} {
		b.Run(tr.name, func(b *testing.B) {
			s := stm.MustNew(stm.Config{
				Algorithm: stm.PVRStore, HeapWords: spec.HeapWords,
				OrecCount: spec.OrecCount, MaxThreads: 128, Tracker: tr.tracker,
			})
			inst, err := spec.Build(s, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			var mu sync.Mutex
			var seq uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				seq++
				ctx := &OpCtx{Th: s.MustNewThread(), RNG: rng.New(seq), S: s}
				mu.Unlock()
				for pb.Next() {
					inst.Op(ctx, ReadMostly)
				}
			})
		})
	}
}
