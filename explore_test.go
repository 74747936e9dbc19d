package stm

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"privstm/internal/core"
	"privstm/internal/sched"
	"privstm/internal/serial"
)

// schedReplay re-executes a recorded exploration failure verbatim. The
// corpus tests print the exact value to pass when a schedule fails, e.g.:
//
//	go test -run TestSchedReplay -sched.replay 'rmw:pvrStore:0.1.1.0'
var schedReplay = flag.String("sched.replay", "",
	"replay a recorded exploration failure: program:algorithm:trace")

// exploreAlgos are the engine families the exploration corpus covers: the
// two ordering-based schemes, the validation-fence scheme, the TL2
// baseline, an in-place (undo-log) PVR engine, the store-protocol PVR
// variant, and the hybrid.
var exploreAlgos = []Algorithm{Ord, Val, TL2, PVRBase, PVRStore, PVRHybrid}

// mkExploreSTM builds a small instance for exploration: escalation is
// disabled (MaxAttempts < 0) because the serialized-irrevocable fallback
// drains rivals with no yield point between polls, which the explorer
// would report as a stuck step.
func mkExploreSTM(alg Algorithm) *STM {
	return MustNew(Config{
		Algorithm: alg, HeapWords: 1 << 12, OrecCount: 1 << 8,
		MaxThreads: 8, MaxAttempts: -1,
	})
}

// exploreOracle is the OnStep invariant check shared by every program: the
// slot tracker's watermark soundness (a cached oldest-begin may never sit
// above a live transaction's begin) and each thread's hint-cache invariant
// (CORRECTNESS.md §10). It runs with every worker suspended at a yield
// point, so any violation it reports is a real reachable state.
func exploreOracle(s *STM) func() error {
	return func() error {
		if st, ok := core.UnwrapTracker(s.rt.Active).(*core.SlotTracker); ok {
			if err := st.CheckWatermark(); err != nil {
				return err
			}
		}
		var err error
		s.rt.ForEachThread(func(t *core.Thread) {
			if err == nil {
				err = t.CheckHintCache()
			}
		})
		return err
	}
}

// schedProgram is a named exploration micro-program, parameterized by
// engine so one interleaving bug hunt covers every family. mk must build a
// fresh program per call (fresh STM, fresh threads): schedules are
// independent executions.
type schedProgram struct {
	name string
	mk   func(alg Algorithm) (sched.Config, []func())
}

// rmwProgram: three workers run read-modify-write transactions on two
// shared registers, recording the history; at the end the offline
// serializability checker (internal/serial) must accept it. Values are
// globally unique so the checker can reconstruct version orders.
func rmwProgram(alg Algorithm) (sched.Config, []func()) {
	s := mkExploreSTM(alg)
	base := s.MustAlloc(2)
	hist := &serial.History{}
	var bodies []func()
	for w := 0; w < 3; w++ {
		th := s.MustNewThread()
		tid := uint64(w + 1)
		bodies = append(bodies, func() {
			for i := 0; i < 2; i++ {
				var rec serial.Txn
				err := th.Atomic(func(tx *Tx) {
					rec = serial.Txn{ID: int(tid)<<8 | i}
					a := base + Addr((int(tid)+i)%2)
					v := tx.Load(a)
					rec.Reads = []serial.Op{{Addr: uint64(a), Val: uint64(v)}}
					nv := tid<<32 | uint64(i+1)
					tx.Store(a, Word(nv))
					rec.Writes = []serial.Op{{Addr: uint64(a), Val: nv}}
				})
				if err == nil {
					hist.Txns = append(hist.Txns, rec)
				}
				sched.Point("test/rmw/between-txns")
			}
		})
	}
	return sched.Config{
		OnStep: exploreOracle(s),
		AtEnd: func() error {
			hist.SortByID()
			return serial.Check(hist)
		},
	}, bodies
}

// privProgram: a writer transaction updates two words atomically while a
// privatizer detaches them; after the privatizer's transaction commits the
// words are private, and nontransactional reads must observe them
// consistent (both updated or neither — never a half-applied write-back or
// half-rolled-back undo) and stable (no delayed write-back after the
// fence). On the privatization-safe engines this must hold on every
// schedule; on the TL2 baseline the explorer is expected to find the
// violation (TestExploreFindsTL2PrivatizationRace).
func privProgram(alg Algorithm) (sched.Config, []func()) {
	s := mkExploreSTM(alg)
	flagA := s.MustAlloc(1)
	data := s.MustAlloc(2)
	wth := s.MustNewThread()
	pth := s.MustNewThread()
	writer := func() {
		for i := 0; i < 2; i++ {
			_ = wth.Atomic(func(tx *Tx) {
				if tx.Load(flagA) != 0 {
					return // already privatized: hands off
				}
				tx.Store(data, tx.Load(data)+1)
				sched.Point("test/priv/mid-writer")
				tx.Store(data+1, tx.Load(data+1)+1)
			})
			sched.Point("test/priv/between-txns")
		}
	}
	privatizer := func() {
		_ = pth.Atomic(func(tx *Tx) {
			tx.Store(flagA, 1) // detach: committed ⇒ data is private
		})
		a, b := s.DirectLoad(data), s.DirectLoad(data+1)
		if a != b {
			panic(fmt.Sprintf("privatization violation: torn private state %d/%d after detach", a, b))
		}
		sched.Point("test/priv/recheck")
		if s.DirectLoad(data) != a || s.DirectLoad(data+1) != b {
			panic(fmt.Sprintf("privatization violation: private data changed after detach (%d/%d -> %d/%d)",
				a, b, s.DirectLoad(data), s.DirectLoad(data+1)))
		}
	}
	return sched.Config{OnStep: exploreOracle(s)}, []func(){writer, privatizer}
}

var schedPrograms = []schedProgram{
	{name: "rmw", mk: rmwProgram},
	{name: "priv", mk: privProgram},
}

func findProgram(name string) *schedProgram {
	for i := range schedPrograms {
		if schedPrograms[i].name == name {
			return &schedPrograms[i]
		}
	}
	return nil
}

// replayLine formats the reproduction command for a failing schedule.
func replayLine(prog string, alg Algorithm, tr sched.Trace) string {
	return fmt.Sprintf("go test -run TestSchedReplay -sched.replay '%s:%v:%s'", prog, alg, tr)
}

// reportScheduleFailure is the shared failure path: the error, the seed,
// and a copy-pasteable replay command.
func reportScheduleFailure(t *testing.T, prog string, alg Algorithm, res *sched.Result) {
	t.Helper()
	t.Errorf("%s/%v: schedule violation (seed %d): %v\n  replay: %s",
		prog, alg, res.Seed, res.Err, replayLine(prog, alg, res.Trace))
}

// TestExploreSerializability runs the PCT corpus of the rmw program over
// every engine family: no schedule may produce a non-serializable history
// or violate the runtime oracles.
func TestExploreSerializability(t *testing.T) {
	const runs = 12
	for _, alg := range exploreAlgos {
		t.Run(alg.String(), func(t *testing.T) {
			res, n := sched.ExplorePCT(sched.Config{Seed: 1, Horizon: 256},
				runs, func() (sched.Config, []func()) { return rmwProgram(alg) })
			if res != nil {
				reportScheduleFailure(t, "rmw", alg, res)
			}
			if n != runs {
				t.Errorf("explored %d schedules, want %d", n, runs)
			}
		})
	}
}

// TestExplorePrivatizationSafety runs the PCT corpus of the priv program
// over the privatization-safe families (every algorithm but TL2, whose
// expected violation has its own test below).
func TestExplorePrivatizationSafety(t *testing.T) {
	const runs = 16
	for _, alg := range exploreAlgos {
		if !alg.Safe() {
			continue
		}
		t.Run(alg.String(), func(t *testing.T) {
			res, _ := sched.ExplorePCT(sched.Config{Seed: 1, Horizon: 256},
				runs, func() (sched.Config, []func()) { return privProgram(alg) })
			if res != nil {
				reportScheduleFailure(t, "priv", alg, res)
			}
		})
	}
}

// TestExploreDFSSerializability exhaustively enumerates (bounded) the rmw
// program's schedule prefix space on one undo-log and one redo-log engine.
func TestExploreDFSSerializability(t *testing.T) {
	for _, alg := range []Algorithm{PVRBase, Ord} {
		t.Run(alg.String(), func(t *testing.T) {
			res, n := sched.ExploreDFS(sched.Config{}, 60,
				func() (sched.Config, []func()) { return rmwProgram(alg) })
			if res != nil {
				reportScheduleFailure(t, "rmw", alg, res)
			}
			if n == 0 {
				t.Error("DFS explored nothing")
			}
		})
	}
}

// TestExploreFindsTL2PrivatizationRace: the TL2 baseline has no
// privatization fence, so some schedule of the priv program lets the
// privatizer observe a half-written private region. The explorer must FIND
// that schedule — this is the positive control proving the whole apparatus
// (yield points, scheduler, oracles) can detect a real privatization bug —
// and the printed trace must reproduce it verbatim.
func TestExploreFindsTL2PrivatizationRace(t *testing.T) {
	res, n := sched.ExploreDFS(sched.Config{}, 4000,
		func() (sched.Config, []func()) { return privProgram(TL2) })
	if res == nil {
		t.Fatalf("explorer missed the TL2 privatization race in %d schedules", n)
	}
	if !strings.Contains(res.Err.Error(), "privatization violation") {
		t.Fatalf("found a different failure: %v", res.Err)
	}
	t.Logf("found in %d schedules: %v\n  replay: %s", n, res.Err, replayLine("priv", TL2, res.Trace))

	// The recorded trace reproduces the violation deterministically.
	cfg, bodies := privProgram(TL2)
	rep := sched.Replay(cfg, res.Trace, bodies...)
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "privatization violation") {
		t.Fatalf("replay of the failing trace did not reproduce: %v", rep.Err)
	}
}

// TestExploreDeterministicReplay: the same seed produces the identical
// trace and verdict twice in-process — the property the replay workflow
// and the fixed-seed CI corpus depend on.
func TestExploreDeterministicReplay(t *testing.T) {
	run := func() *sched.Result {
		cfg, bodies := rmwProgram(PVRStore)
		cfg.Seed = 42
		cfg.Horizon = 256
		return sched.Run(cfg, bodies...)
	}
	r1, r2 := run(), run()
	if r1.Failed() || r2.Failed() {
		t.Fatalf("unexpected failures: %v / %v", r1.Err, r2.Err)
	}
	if r1.Trace.String() != r2.Trace.String() {
		t.Fatalf("same seed diverged:\n  %v\n  %v", r1.Trace, r2.Trace)
	}
}

// TestSchedReplay re-executes a failure recorded by the corpus tests. It
// is a no-op unless -sched.replay is set.
func TestSchedReplay(t *testing.T) {
	if *schedReplay == "" {
		t.Skip("no -sched.replay trace given")
	}
	parts := strings.SplitN(*schedReplay, ":", 3)
	if len(parts) != 3 {
		t.Fatalf("-sched.replay %q: want program:algorithm:trace", *schedReplay)
	}
	prog := findProgram(parts[0])
	if prog == nil {
		t.Fatalf("unknown program %q", parts[0])
	}
	alg, err := ParseAlgorithm(parts[1])
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sched.ParseTrace(parts[2])
	if err != nil {
		t.Fatal(err)
	}
	cfg, bodies := prog.mk(alg)
	res := sched.Replay(cfg, trace, bodies...)
	if res.Failed() {
		t.Fatalf("schedule violation reproduced at trace %v:\n  %v", res.Trace, res.Err)
	}
	t.Logf("trace %v replayed clean", trace)
}
