// Package bench implements the paper's §V evaluation: the three
// microbenchmark data structures (hashtable, binary search tree,
// multi-list), the operation-mix workload driver, and the figure
// definitions that regenerate every panel of Figures 3 and 4. It also holds
// stmbench's -remote client (remote.go), which drives a running stmd, and
// the CSV/JSON writers for both kinds of cell.
//
// All data structures live entirely in transactional memory and are
// manipulated through the public stm API, exactly as the paper's C
// structures were manipulated through stm_read/stm_write.
package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	stm "privstm"
	"privstm/internal/heap"
	"privstm/internal/rng"
	"privstm/internal/stats"
)

// Mix is an operation distribution. Percentages must sum to ≤ 100; the
// remainder are lookups.
type Mix struct {
	InsertPct int
	DeletePct int
}

// LookupPct returns the lookup share.
func (m Mix) LookupPct() int { return 100 - m.InsertPct - m.DeletePct }

// String formats the mix the way the paper labels its panels
// (insert/delete/lookup).
func (m Mix) String() string {
	return fmt.Sprintf("%d/%d/%d", m.InsertPct, m.DeletePct, m.LookupPct())
}

// The two distributions evaluated in §V.
var (
	ReadMostly  = Mix{InsertPct: 10, DeletePct: 10} // 80% lookups
	WriteHeavy  = Mix{InsertPct: 40, DeletePct: 40} // 20% lookups
	AllMixes    = []Mix{ReadMostly, WriteHeavy}
	defaultSeed = uint64(0x5eed)
)

// Instance is one built data structure. Op executes a single randomly
// chosen operation as one transaction; Check validates structural
// invariants after a run.
type Instance interface {
	// Op runs one operation on behalf of ctx's thread.
	Op(ctx *OpCtx, mix Mix)
	// Check validates the structure. It reads the heap through
	// STM.Quiescent, so every Thread must be closed; it returns
	// stm.ErrThreadsOpen otherwise.
	Check(s *stm.STM) error
	// Size returns the current element count (every Thread closed, or
	// it panics with stm.ErrThreadsOpen).
	Size(s *stm.STM) int
	// Dump returns the current key set in ascending order (every Thread
	// closed, as for Size; tests compare against a model).
	Dump(s *stm.STM) []uint64
}

// quiescent runs fn over the whole heap (STM.Quiescent) for the Instance
// methods that cannot return the error of a thread still open.
func quiescent(s *stm.STM, fn func(h stm.Private)) {
	if err := s.Quiescent(fn); err != nil {
		panic(err)
	}
}

// Spec describes how to build a workload instance.
type Spec struct {
	// Name is the label used in figure output ("hashtable", "bst",
	// "multi-list 64x512", ...).
	Name string
	// HeapWords / OrecCount size the STM instance for this workload.
	HeapWords int
	OrecCount int
	// Build populates a fresh structure on s (called once per run).
	Build func(s *stm.STM, r *rng.RNG) (Instance, error)
}

// OpCtx is per-worker state: the STM thread, a private RNG and the
// key-skew configuration.
type OpCtx struct {
	Th  *stm.Thread
	RNG *rng.RNG
	S   *stm.STM
	// ZipfTheta skews Key draws (0 = uniform; see RunConfig.ZipfTheta).
	ZipfTheta float64
	// Sampler cache: every workload draws from one key space, so the
	// inline entry keeps the per-draw cost at two compares; the map only
	// backs workloads mixing several spaces.
	zipfN int
	zipfZ *rng.Zipf
	zipf  map[int]*rng.Zipf
}

// Key draws a key in [0, n): Zipf(ZipfTheta), where theta 0 is the uniform
// limit (rng.NewZipf handles it; the draw is bit-identical to RNG.Intn, so
// historical uniform key streams are unchanged). Zipf rank 0 is the hottest
// key; ranks are used directly,
// so hot keys are the low ones (for the modulo-hashed structures this
// spreads the hottest ranks across distinct buckets/lists). Samplers share
// the worker's RNG stream, so paired A/B runs with one seed draw identical
// key sequences.
func (c *OpCtx) Key(n int) int {
	if c.ZipfTheta == 0 {
		// Draw-for-draw identical to the theta-0 sampler (rng.Zipf
		// documents the equivalence, zipf_test pins it); going through
		// RNG.Intn directly keeps the draw inlined on the hottest figure
		// paths instead of paying a sampler call per key.
		return c.RNG.Intn(n)
	}
	if n != c.zipfN || c.zipfZ == nil {
		z := c.zipf[n]
		if z == nil {
			if c.zipf == nil {
				c.zipf = make(map[int]*rng.Zipf, 2)
			}
			z = rng.NewZipf(c.RNG, uint64(n), c.ZipfTheta)
			c.zipf[n] = z
		}
		c.zipfN, c.zipfZ = n, z
	}
	return int(c.zipfZ.Next())
}

// AllocNode returns a node of nodeWords words, preferring extents recycled
// through the reclaimer's epoch (Thread.MustAlloc). The node may hold stale
// words — the workloads initialize every field before publishing, as a
// malloc-based C implementation would. Heap exhaustion panics with an error
// wrapping heap.ErrOutOfMemory; Run returns it.
func (c *OpCtx) AllocNode(nodeWords int) stm.Addr { return c.Th.MustAlloc(nodeWords) }

// FreeNode retires the nodeWords-word node at a through the epoch-based
// reclaimer: the extent waits in limbo until no incomplete transaction began
// before the unlinking commit, so a doomed reader still holding the address
// never observes reuse. Call only after the transaction that unlinked it has
// committed — the retire stamp is that commit's timestamp.
func (c *OpCtx) FreeNode(a stm.Addr, nodeWords int) { c.Th.Retire(a, nodeWords) }

// RunConfig drives one throughput measurement.
type RunConfig struct {
	Algorithm stm.Algorithm
	Threads   int
	// TxnsPerThread is the fixed per-thread operation count (the paper
	// ran 10^5). If zero, Duration mode is used.
	TxnsPerThread int
	// Duration bounds the run in time-based mode.
	Duration time.Duration
	Mix      Mix
	Seed     uint64
	// MaxAttempts is the abort budget before serialized-irrevocable
	// escalation (0 = default, negative disables).
	MaxAttempts int
	// ZipfTheta skews key choice across every workload: 0 means uniform
	// (the paper's distribution); anything in (0, 1) draws keys from a
	// Zipf(theta) distribution (YCSB convention — theta 0.99 is "zipfian").
	ZipfTheta float64
}

// Measurement is the outcome of one (workload, algorithm, threads, mix)
// cell: one point on one curve of Figure 3 or 4.
type Measurement struct {
	// Fig is the figure ID the cell belongs to ("3e", "t1", ...); set by
	// RunFigure, empty for direct Run calls.
	Fig        string
	Workload   string
	Algorithm  string
	Threads    int
	Mix        Mix
	Ops        uint64
	Elapsed    time.Duration
	Throughput float64 // operations per second
	// RepThroughputs holds the per-repetition throughputs when the cell
	// was run more than once (runCell); WriteJSON derives the reported
	// standard deviation from it.
	RepThroughputs []float64
	// ZipfTheta is the key-skew the cell ran with (0 = uniform).
	ZipfTheta float64
	// ReclaimCollects counts epoch-collection passes (amortized + drain).
	ReclaimCollects uint64
	// Remote carries the macro-run fields of an stmbench -remote cell
	// (connection count, latency quantiles, server-side abort deltas); nil
	// for local cells.
	Remote *RemoteStats
	Stats  stats.Counters
}

// Run builds the workload and drives it with rc.Threads workers.
func Run(spec Spec, rc RunConfig) (*Measurement, error) {
	if rc.Threads <= 0 {
		rc.Threads = 1
	}
	if rc.Seed == 0 {
		rc.Seed = defaultSeed
	}
	s, err := stm.New(stm.Config{
		Algorithm:   rc.Algorithm,
		HeapWords:   spec.HeapWords,
		OrecCount:   spec.OrecCount,
		MaxThreads:  rc.Threads,
		MaxAttempts: rc.MaxAttempts,
	})
	if err != nil {
		return nil, err
	}
	inst, err := spec.Build(s, rng.New(rc.Seed))
	if err != nil {
		return nil, fmt.Errorf("bench: %s: build: %w", spec.Name, err)
	}

	ctxs := make([]*OpCtx, rc.Threads)
	for i := range ctxs {
		th, err := s.NewThread()
		if err != nil {
			return nil, err
		}
		ctxs[i] = &OpCtx{Th: th, RNG: rng.New(rc.Seed + uint64(i)*1e9), S: s, ZipfTheta: rc.ZipfTheta}
	}

	var wg sync.WaitGroup
	// oom[i] is worker i's heap-exhaustion error, if it ran out of space.
	oom := make([]error, len(ctxs))
	deadline := time.Now().Add(rc.Duration)
	start := time.Now()
	for i, ctx := range ctxs {
		wg.Add(1)
		go func(i int, ctx *OpCtx) {
			defer wg.Done()
			// Build returns heap exhaustion as an error; during the run it
			// surfaces as a MustAlloc panic from AllocNode, which every
			// workload calls outside its transaction — so recovering here
			// never strands a transaction mid-flight. The worker stops and
			// Run returns the error; anything else still propagates.
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if err, ok := r.(error); ok && errors.Is(err, heap.ErrOutOfMemory) {
					oom[i] = err
					return
				}
				panic(r)
			}()
			if rc.TxnsPerThread > 0 {
				for i := 0; i < rc.TxnsPerThread; i++ {
					inst.Op(ctx, rc.Mix)
					ctx.Th.Stats().Ops++
				}
				return
			}
			// Duration mode: check the clock every few operations to
			// keep timer syscalls off the hot path.
			for done := false; !done; {
				for i := 0; i < 32; i++ {
					inst.Op(ctx, rc.Mix)
					ctx.Th.Stats().Ops++
				}
				done = time.Now().After(deadline)
			}
		}(i, ctx)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Fold every worker's counters, then close its thread: Close publishes
	// its buffered retires for the drain, and Check reads the heap only
	// once no thread is open.
	var counters stats.Counters
	for _, ctx := range ctxs {
		counters.Add(ctx.Th.Stats())
		if err := ctx.Th.Close(); err != nil {
			return nil, err
		}
	}
	s.DrainReclaim()
	for i, err := range oom {
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%s: worker %d: %w", spec.Name, rc.Algorithm, i, err)
		}
	}

	m := &Measurement{
		Workload:        spec.Name,
		Algorithm:       rc.Algorithm.String(),
		Threads:         rc.Threads,
		Mix:             rc.Mix,
		Elapsed:         elapsed,
		ZipfTheta:       rc.ZipfTheta,
		ReclaimCollects: s.ReclaimStats().Collects,
		Stats:           counters,
	}
	m.Ops = m.Stats.Ops
	if elapsed > 0 {
		m.Throughput = float64(m.Ops) / elapsed.Seconds()
	}
	if err := inst.Check(s); err != nil {
		return nil, fmt.Errorf("post-run structural check failed (%s/%s): %w",
			spec.Name, rc.Algorithm, err)
	}
	return m, nil
}
