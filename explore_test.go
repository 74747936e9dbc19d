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
// ordering-based scheme, the validation-fence scheme, the TL2
// baseline, two in-place (undo-log) PVR engines (without and with grace
// periods), and the hybrid.
var exploreAlgos = []Algorithm{Ord, Val, TL2, PVRBase, PVRStore, PVRHybrid}

func mkExploreSTM(alg Algorithm) *STM { return MustNew(exploreConfig(alg)) }

// exploreConfig configures a small instance for exploration: escalation is
// disabled (MaxAttempts < 0) because the serialized-irrevocable fallback
// drains rivals with no yield point between polls, which the explorer
// would report as a stuck step.
func exploreConfig(alg Algorithm) Config {
	return Config{
		Algorithm: alg, HeapWords: 1 << 12, OrecCount: 1 << 8,
		MaxThreads: 8, MaxAttempts: -1,
	}
}

// exploreOracle is the OnStep invariant check shared by every program: the
// slot tracker's watermark soundness (a cached oldest-begin may never sit
// above a live transaction's begin) and each live visible transaction's
// coverage (every hint it published still reads rts ≥ its begin time;
// CORRECTNESS.md §10). It runs with every worker suspended at a yield
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
				err = t.CheckCoverage()
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
// shared registers, each in a block of its own, recording the history; at
// the end the offline serializability checker (internal/serial) must
// accept it. Each transaction reads and overwrites one register, then
// reads the other, so a transaction can abort after its in-place write
// when the other register moved. Written values are unique per attempt, so
// a committed read of an aborted write names a value with no writer.
func rmwProgram(alg Algorithm) (sched.Config, []func()) {
	s := mkExploreSTM(alg)
	regs := [2]Addr{s.MustAlloc(1), s.MustAlloc(1)}
	hist := &serial.History{}
	var bodies []func()
	for w := 0; w < 3; w++ {
		th := s.MustNewThread()
		tid := uint64(w + 1)
		attempt := uint64(0)
		bodies = append(bodies, func() {
			for i := 0; i < 2; i++ {
				var rec serial.Txn
				err := th.Atomic(func(tx *Tx) {
					attempt++
					rec = serial.Txn{ID: int(tid)<<8 | i}
					k := (int(tid) + i) % 2
					a, other := regs[k], regs[1-k]
					v := tx.Load(a)
					nv := tid<<32 | attempt
					tx.Store(a, Word(nv))
					rec.Reads = []serial.Op{
						{Addr: uint64(a), Val: uint64(v)},
						{Addr: uint64(other), Val: uint64(tx.Load(other))},
					}
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
		p, err := pth.Privatize(func(tx *Tx) (Addr, int) {
			tx.Store(flagA, 1) // detach: committed ⇒ data is private
			return data, 2
		})
		if err != nil {
			panic(err)
		}
		a, b := p.Load(0), p.Load(1)
		if a != b {
			panic(fmt.Sprintf("privatization violation: torn private state %d/%d after detach", a, b))
		}
		sched.Point("test/priv/recheck")
		if p.Load(0) != a || p.Load(1) != b {
			panic(fmt.Sprintf("privatization violation: private data changed after detach (%d/%d -> %d/%d)",
				a, b, p.Load(0), p.Load(1)))
		}
	}
	return sched.Config{OnStep: exploreOracle(s)}, []func(){writer, privatizer}
}

// storeCoverProgram: two readers of one flag block and a writer that
// privatizes the data block behind it, aimed at concurrent visibility
// updates of one orec (CORRECTNESS.md §4: the §III-B store protocol loses a
// live reader's hint here). The writer first commits an unrelated word, so
// the clock can move between the two readers' begin times; then it
// detaches the data by setting the flag, and rewrites both data words
// uninstrumented. Each reader reads the flag and, while the data is still
// shared, both data words, recording a torn pair. If one reader's delayed
// update lowers the other's hint below its begin time, the writer's fence
// skips that reader and it can observe the private rewrite half done; the
// coverage oracle reports the lowered hint as soon as it happens.
//
// Two engines need help to make the readers' reads visible: on
// pvrWriterOnly each reader first stores to a word of its own (the §III-C
// transition), and pvrHybrid runs with HybridThreshold 1, so a reader that
// sees the clock move after its first read switches to visible mode.
func storeCoverProgram(alg Algorithm) (sched.Config, []func()) {
	cfg, bodies, _ := storeCover(alg)
	return cfg, bodies
}

// storeCover builds storeCoverProgram and also returns its two reader
// threads (workers 0 and 2).
func storeCover(alg Algorithm) (sched.Config, []func(), [2]*Thread) {
	c := exploreConfig(alg)
	c.HybridThreshold = 1
	s := MustNew(c)
	flagA := s.MustAlloc(1)
	data := s.MustAlloc(2)
	tick := s.MustAlloc(1)
	wth := s.MustNewThread()
	var torn error
	var readers [2]*Thread
	reader := func(i int) func() {
		th := s.MustNewThread()
		readers[i] = th
		own := s.MustAlloc(1)
		return func() {
			_ = th.Atomic(func(tx *Tx) {
				if alg == PVRWriterOnly {
					tx.Store(own, 1)
				}
				if tx.Load(flagA) != 0 {
					return // privatized: hands off
				}
				a := tx.Load(data)
				sched.Point("test/storecover/mid-read")
				if b := tx.Load(data + 1); a != b && torn == nil {
					torn = fmt.Errorf("privatization violation: a reader saw private data torn %d/%d", a, b)
				}
			})
		}
	}
	writer := func() {
		_ = wth.Atomic(func(tx *Tx) { tx.Store(tick, tx.Load(tick)+1) })
		sched.Point("test/storecover/between-txns")
		p, err := wth.Privatize(func(tx *Tx) (Addr, int) {
			tx.Store(flagA, 1)
			return data, 2
		})
		if err != nil {
			panic(err)
		}
		p.Store(0, 1)
		sched.Point("test/storecover/mid-private-write")
		p.Store(1, 1)
	}
	return sched.Config{
		OnStep: exploreOracle(s),
		AtEnd:  func() error { return torn },
	}, []func(){reader(0), writer, reader(1)}, readers
}

var schedPrograms = []schedProgram{
	{name: "rmw", mk: rmwProgram},
	{name: "priv", mk: privProgram},
	{name: "storecover", mk: storeCoverProgram},
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

// storeCoverPCT and storeCoverRuns are the PCT corpus over
// storeCoverProgram. Under the store protocol the lowered hint needs four
// well-placed preemptions — the delayed reader held between its clock
// sample and its claim, the other reader beginning after a commit, the
// claim overwritten, and the delayed store landing after the overwriter
// succeeded — which a bounded DFS does not reach (20,000 schedules clean)
// and PCT does (explore_storevis_race_test.go). The horizon is the
// program's mean schedule length. The two yield sites of the consistent
// read (core/read/before-load and before-postcheck) raised it from 38 to
// 48 steps, and with them depth 4 missed the hole in 4,000 schedules;
// depth 5 finds it at seed 318.
var storeCoverPCT = sched.Config{Seed: 1, ChangePoints: 5, Horizon: 48}

const storeCoverRuns = 400

// storeCoverAlgos are the engines whose readers publish visibility hints.
var storeCoverAlgos = []Algorithm{PVRBase, PVRCAS, PVRStore, PVRWriterOnly, PVRHybrid}

// TestExploreStoreCover runs the store-cover corpus on every visible
// engine: each visibility update is a compare-and-swap, which fails
// instead of landing stale, so every schedule must keep every live reader
// covered and no reader may see torn data. Built with
// -tags privstm_storevis_race the engines publish with the §III-B store
// protocol instead, and this corpus fails.
func TestExploreStoreCover(t *testing.T) {
	for _, alg := range storeCoverAlgos {
		t.Run(alg.String(), func(t *testing.T) {
			res, _ := sched.ExplorePCT(storeCoverPCT, storeCoverRuns,
				func() (sched.Config, []func()) { return storeCoverProgram(alg) })
			if res != nil {
				reportScheduleFailure(t, "storecover", alg, res)
			}
		})
	}
}

// TestStoreCoverReadersVisible checks that the store-cover corpus tests
// what it is for on every engine it covers: each reader takes the
// partially visible read path (PVReads > 0) in some schedule of the
// corpus's own seeds. Only pvrHybrid needs more than the first seed, as
// its readers switch mode only when the writer commits mid-transaction.
func TestStoreCoverReadersVisible(t *testing.T) {
	for _, alg := range storeCoverAlgos {
		t.Run(alg.String(), func(t *testing.T) {
			var seen [2]bool
			runs := 0
			for ; runs < storeCoverRuns && !(seen[0] && seen[1]); runs++ {
				cfg, bodies, readers := storeCover(alg)
				cfg.Seed = storeCoverPCT.Seed + uint64(runs)
				cfg.ChangePoints, cfg.Horizon = storeCoverPCT.ChangePoints, storeCoverPCT.Horizon
				if res := sched.Run(cfg, bodies...); res.Failed() {
					t.Fatalf("seed %d: %v", cfg.Seed, res.Err)
				}
				for i, r := range readers {
					seen[i] = seen[i] || r.Stats().PVReads > 0
				}
			}
			if !seen[0] || !seen[1] {
				t.Fatalf("readers took the visible path (reader 0, reader 1) = %v in %d schedules", seen, runs)
			}
			t.Logf("both readers visible within %d schedules", runs)
		})
	}
}

// undoABAPCT and undoABARuns are the PCT corpus of rmwProgram on the
// undo-log engines aimed at the aborted-write read (CORRECTNESS.md §2): a
// reader pauses between its pre-check and its load and again before its
// post-check, while a writer stores in place and aborts on its read of the
// other register. The hole needs four preemptions in a short horizon.
var undoABAPCT = sched.Config{Seed: 1, ChangePoints: 4, Horizon: 40}

const undoABARuns = 100

// undoAlgos are the engines that write in place under an undo log.
var undoAlgos = []Algorithm{PVRBase, PVRCAS, PVRStore, PVRWriterOnly}

// TestExploreRMWAbortedWrite runs the aborted-write corpus on every undo
// engine: an abort releases its orecs at a fresh clock tick, so no
// schedule lets a committed transaction read an aborted write. Built with
// -tags privstm_undoaba_race an abort restores the pre-acquisition owner
// word instead, and this corpus fails.
func TestExploreRMWAbortedWrite(t *testing.T) {
	for _, alg := range undoAlgos {
		t.Run(alg.String(), func(t *testing.T) {
			res, _ := sched.ExplorePCT(undoABAPCT, undoABARuns,
				func() (sched.Config, []func()) { return rmwProgram(alg) })
			if res != nil {
				reportScheduleFailure(t, "rmw", alg, res)
			}
		})
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
