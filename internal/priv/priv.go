// Package priv implements a stress checker for the privatization problem of
// the paper's Figure 1: a privatizer thread transactionally truncates a
// shared linked list and then processes the detached nodes without any
// instrumentation, while non-privatizer threads transactionally search and
// modify nodes of the same list.
//
// Every node carries a pair of mirror fields (A, B) that all writers —
// transactional and private — always update together to the same value.
// The checker therefore detects both halves of the privatization problem:
//
//   - Delayed cleanup: the privatizer reads A ≠ B on a privatized node,
//     because a doomed transaction has not yet undone its in-place writes,
//     or a committed transaction's redo write-back is still in flight.
//
//   - Doomed transactions: a transaction body observes A ≠ B, because the
//     privatizer's uninstrumented writes raced with its reads after it was
//     doomed.
//
// Under a privatization-safe algorithm both counters must be zero; under
// the TL2 baseline violations are possible (and demonstrate the problem).
package priv

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	stm "privstm"
)

// Node field offsets within a 4-word node.
const (
	fNext = 0 // address of next node (stm.Nil terminates)
	fVal  = 1 // payload key
	fA    = 2 // mirror field A
	fB    = 3 // mirror field B
	nodeW = 4
)

// Config parameterizes a stress run.
type Config struct {
	Algorithm stm.Algorithm
	// Nodes is the length of the shared list.
	Nodes int
	// Readers is the number of non-privatizer threads.
	Readers int
	// Iterations is the number of privatize/process/republish cycles.
	Iterations int
	// TornWindow widens the race windows: workers yield the processor
	// between accesses to the two mirror fields, both transactionally and
	// in the privatizer's private phase. Safe algorithms must stay clean
	// even so; the TL2 baseline then exhibits violations much more often.
	TornWindow bool
	// CapFenceAtCommit selects the capped-fence runtime variant; the
	// safety assertions must hold either way.
	CapFenceAtCommit bool
	// AtomicPrivate makes the privatizer's "uninstrumented" accesses use
	// atomic loads/stores. The fence-based algorithms are race-free with
	// plain accesses (the interesting property!); the TL2 baseline and the
	// strict-ordering schemes physically race by design — the original
	// systems rely on TSO hardware — so their checkers use atomic access
	// to keep Go's race detector out of the experiment while still
	// detecting every logical violation.
	AtomicPrivate bool
}

// Result reports what the stressor observed. The counters worker
// goroutines write are atomics, so Clean and String are safe to call even
// while a run is still in flight.
type Result struct {
	// DelayedCleanup counts privatizer observations of A ≠ B on privatized
	// nodes.
	DelayedCleanup atomic.Int64
	// DoomedReads counts transaction bodies that observed A ≠ B.
	DoomedReads atomic.Int64
	// FinalCorrupt counts nodes left with A ≠ B after all threads joined.
	FinalCorrupt int64
	// Privatizations is the number of completed truncate/process cycles.
	Privatizations int64
	// TxOps is the number of committed non-privatizer operations.
	TxOps atomic.Int64
}

// Clean reports whether the run observed no violations at all.
func (r *Result) Clean() bool {
	return r.DelayedCleanup.Load() == 0 && r.DoomedReads.Load() == 0 && r.FinalCorrupt == 0
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("privatizations=%d txOps=%d delayedCleanup=%d doomedReads=%d finalCorrupt=%d",
		r.Privatizations, r.TxOps.Load(), r.DelayedCleanup.Load(), r.DoomedReads.Load(), r.FinalCorrupt)
}

// Run executes the stress scenario and returns the observation counts.
func Run(cfg Config) (*Result, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 32
	}
	if cfg.Readers <= 0 {
		cfg.Readers = 3
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 200
	}
	s, err := stm.New(stm.Config{
		Algorithm:        cfg.Algorithm,
		HeapWords:        1 << 16,
		OrecCount:        1 << 10,
		MaxThreads:       cfg.Readers + 1,
		CapFenceAtCommit: cfg.CapFenceAtCommit,
	})
	if err != nil {
		return nil, err
	}

	// Build the shared list: head word + Nodes nodes.
	head := s.MustAlloc(1)
	nodes := make([]stm.Addr, cfg.Nodes)
	for i := range nodes {
		nodes[i] = s.MustAlloc(nodeW)
	}
	if err := s.Quiescent(func(h stm.Private) {
		prev := head
		for i, n := range nodes {
			h.Store(n+fVal, stm.Word(i))
			h.Store(n+fA, 1)
			h.Store(n+fB, 1)
			h.Store(prev, stm.Word(n))
			prev = n + fNext
		}
	}); err != nil {
		return nil, err
	}

	res := &Result{}
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Non-privatizer threads (Figure 1's T2): search for a node by value
	// and "process" it — read both mirror fields, verify the invariant,
	// and write them back incremented, all transactionally.
	readers := make([]*stm.Thread, cfg.Readers)
	for r := range readers {
		th := s.MustNewThread()
		readers[r] = th
		target := stm.Word(r % cfg.Nodes)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				err := th.Atomic(func(tx *stm.Tx) {
					n := tx.LoadAddr(head)
					for n != stm.Nil && tx.Load(n+fVal) != target {
						n = tx.LoadAddr(n + fNext)
					}
					if n == stm.Nil {
						return // list currently privatized
					}
					a := tx.Load(n + fA)
					if cfg.TornWindow {
						runtime.Gosched()
					}
					b := tx.Load(n + fB)
					if a != b {
						// A doomed transaction observed torn private
						// state. Counted immediately: opacity forbids
						// user code from ever seeing this, even in a
						// body that is later retried.
						res.DoomedReads.Add(1)
						return
					}
					tx.Store(n+fA, a+1)
					if cfg.TornWindow {
						runtime.Gosched()
					}
					tx.Store(n+fB, b+1)
				})
				if err == nil {
					res.TxOps.Add(1)
				}
			}
		}()
	}

	// The privatizer (Figure 1's T1): truncate, process privately,
	// republish.
	priv := s.MustNewThread()
	load := func(n stm.Private, f stm.Addr) stm.Word {
		if cfg.AtomicPrivate {
			return s.AtomicLoad(n.Base() + f)
		}
		return n.Load(f)
	}
	store := func(n stm.Private, f stm.Addr, w stm.Word) {
		if cfg.AtomicPrivate {
			s.AtomicStore(n.Base()+f, w)
		} else {
			n.Store(f, w)
		}
	}
	for it := 0; it < cfg.Iterations; it++ {
		pl, err := priv.Privatize(func(tx *stm.Tx) (stm.Addr, int) {
			n := tx.LoadAddr(head)
			tx.StoreAddr(head, stm.Nil)
			return n, nodeW
		})
		if err != nil {
			return nil, err
		}
		// The list is now logically private: process it with
		// uninstrumented accesses.
		for n := pl; n.Base() != stm.Nil; n = n.Follow(fNext, nodeW) {
			a := load(n, fA)
			b := load(n, fB)
			if a != b {
				res.DelayedCleanup.Add(1)
			}
			store(n, fA, a+2)
			if cfg.TornWindow {
				// Widen the torn window with a busy delay. (Gosched here
				// would park the privatizer behind the reader loops for a
				// full preemption quantum on small machines, slowing the
				// stressor by orders of magnitude without widening the
				// interesting race.)
				busyDelay()
			}
			store(n, fB, a+2)
		}
		res.Privatizations++
		// Republish (publication-by-store idiom).
		_ = priv.Atomic(func(tx *stm.Tx) {
			tx.StoreAddr(head, pl.Base())
		})
	}
	stop.Store(true)
	wg.Wait()
	for _, th := range append(readers, priv) {
		if err := th.Close(); err != nil {
			return nil, err
		}
	}

	// Final audit: every node must satisfy the invariant.
	if err := s.Quiescent(func(h stm.Private) {
		for _, n := range nodes {
			if h.Load(n+fA) != h.Load(n+fB) {
				res.FinalCorrupt++
			}
		}
	}); err != nil {
		return nil, err
	}
	return res, nil
}

//go:noinline
func busySpinIter() {}

// busyDelay burns roughly a microsecond without yielding the processor.
func busyDelay() {
	for i := 0; i < 2000; i++ {
		busySpinIter()
	}
}
