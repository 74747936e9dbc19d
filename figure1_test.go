package stm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// figure1_test.go stresses the paper's Figure 1 privatization scenario and
// its mirror image, publication by store, on every distinct
// privatization-safe tuple of engine choices.
//
// Figure 1: a privatizer thread transactionally truncates a shared linked
// list and then processes the detached nodes with no instrumentation,
// while reader threads transactionally search and modify nodes of the
// same list. Every node carries a pair of mirror fields (A, B) that all
// writers — transactional and private — update together to one value, so
// the stressor sees both halves of the privatization problem:
//
//   - Delayed cleanup: the privatizer reads A ≠ B on a privatized node,
//     because a doomed transaction has not yet undone its in-place writes,
//     or a committed transaction's redo write-back is still in flight.
//
//   - Doomed transactions: a transaction body observes A ≠ B, because the
//     privatizer's uninstrumented writes raced with its reads after it was
//     doomed.
//
// Workers yield between the two mirror fields to widen both windows.

// figure1Rows lists one algorithm per distinct privatization-safe tuple
// (TestAlgorithmPolicies pins pvrStore to pvrCAS's tuple, so it is not
// repeated). plain selects private access through Private's plain loads
// and stores: the fence-complete engines order every private access after
// every transactional one, so `go test -race` doubles as a proof for them.
// The other three are logically safe but, like the TSO-hosted systems
// they model, let a doomed transaction's discarded load overlap a private
// store (Ord validates instead of fencing; pvrWriterOnly and pvrHybrid do
// so in their invisible modes); their private accesses are atomic, so the
// race detector stays out and the logical invariants are what is checked.
// capFence marks the engines whose commit computes a fence threshold
// (visible readers), the only ones Config.CapFenceAtCommit changes.
type figure1Row struct {
	alg             Algorithm
	plain, capFence bool
}

var figure1Rows = []figure1Row{
	{Ord, false, false},
	{Val, true, false},
	{PVRBase, true, true},
	{PVRCAS, true, true},
	{PVRWriterOnly, false, true},
	{PVRHybrid, false, true},
}

// TestPrivatizationSafeEngines asserts that the Figure 1 stressor observes
// no delayed cleanup, no doomed read and no corrupt node on the
// fence-complete tuples, whose private access is plain.
func TestPrivatizationSafeEngines(t *testing.T) {
	t.Parallel()
	figure1Each(t, false, func(r figure1Row) bool { return r.plain })
}

// TestPrivatizationSafeOrderedEngines asserts the same on the tuples whose
// private access must be atomic.
func TestPrivatizationSafeOrderedEngines(t *testing.T) {
	t.Parallel()
	figure1Each(t, false, func(r figure1Row) bool { return !r.plain })
}

// TestPrivatizationSafeWithExtensions asserts the same with the
// commit-time fence cap on every tuple it changes. The cap changes when a
// fence waits, never whether a needed fence is skipped.
func TestPrivatizationSafeWithExtensions(t *testing.T) {
	t.Parallel()
	figure1Each(t, true, func(r figure1Row) bool { return r.capFence })
}

// figure1Each runs the Figure 1 stressor on the rows keep selects. The
// rows run in parallel, each on its own STM, and so do the three tests
// (a parallel top-level test resumes only after the package's sequential
// tests, so none overlaps the armed failpoints of faults_test.go): run one
// after another, the fenced rows spend seconds each with the privatizer
// waiting at fences (11–22 s in all on a 2-CPU Xeon, against 1.4–4.2 s in
// parallel).
func figure1Each(t *testing.T, capFence bool, keep func(figure1Row) bool) {
	for _, r := range figure1Rows {
		if !keep(r) {
			continue
		}
		t.Run(r.alg.String(), func(t *testing.T) {
			t.Parallel()
			figure1(t, r.alg, r.plain, capFence)
		})
	}
}

// TestPublicationByStore verifies the idiom the paper's footnote 1
// promises: a reader that observes the published pointer observes the
// private initialization too. The un-publish half of each cycle is itself
// a privatization, so this also stresses fences from a second angle.
func TestPublicationByStore(t *testing.T) {
	for _, r := range figure1Rows {
		t.Run(r.alg.String(), func(t *testing.T) { publication(t, r.alg, r.plain) })
	}
}

// Figure 1 node layout: four words.
const (
	f1Next  = 0 // address of next node (Nil terminates)
	f1Val   = 1 // payload key
	f1A     = 2 // mirror field A
	f1B     = 3 // mirror field B
	f1NodeW = 4
)

// figure1 runs one Figure 1 stress: 3 readers over a 24-node list while
// the privatizer runs 150 truncate/process/republish cycles.
func figure1(t *testing.T, alg Algorithm, plain, capFence bool) {
	const nodes, readers, iterations = 24, 3, 150
	s, err := New(Config{
		Algorithm:        alg,
		HeapWords:        1 << 16,
		OrecCount:        1 << 10,
		MaxThreads:       readers + 1,
		CapFenceAtCommit: capFence,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Build the shared list: head word + nodes.
	head := s.MustAlloc(1)
	list := make([]Addr, nodes)
	for i := range list {
		list[i] = s.MustAlloc(f1NodeW)
	}
	if err := s.Quiescent(func(h Private) {
		prev := head
		for i, n := range list {
			h.Store(n+f1Val, Word(i))
			h.Store(n+f1A, 1)
			h.Store(n+f1B, 1)
			h.Store(prev, Word(n))
			prev = n + f1Next
		}
	}); err != nil {
		t.Fatal(err)
	}

	var delayedCleanup, doomedReads, txOps atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Readers (Figure 1's T2): search for a node by value and "process"
	// it — read both mirror fields, check they agree, and write them back
	// incremented, all transactionally.
	ths := make([]*Thread, readers, readers+1)
	for r := range ths {
		th := s.MustNewThread()
		ths[r] = th
		target := Word(r % nodes)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				err := th.Atomic(func(tx *Tx) {
					n := tx.LoadAddr(head)
					for n != Nil && tx.Load(n+f1Val) != target {
						n = tx.LoadAddr(n + f1Next)
					}
					if n == Nil {
						return // list currently privatized
					}
					a := tx.Load(n + f1A)
					runtime.Gosched()
					b := tx.Load(n + f1B)
					if a != b {
						// Counted at once: opacity forbids user code
						// from ever seeing this, even in a body that is
						// later retried.
						doomedReads.Add(1)
						return
					}
					tx.Store(n+f1A, a+1)
					runtime.Gosched()
					tx.Store(n+f1B, b+1)
				})
				if err == nil {
					txOps.Add(1)
				}
			}
		}()
	}

	// The privatizer (Figure 1's T1): truncate, process privately,
	// republish by store.
	priv := s.MustNewThread()
	ths = append(ths, priv)
	load := func(n Private, f Addr) Word {
		if plain {
			return n.Load(f)
		}
		return s.rt.Heap.AtomicLoad(n.Base() + f)
	}
	store := func(n Private, f Addr, w Word) {
		if plain {
			n.Store(f, w)
		} else {
			s.rt.Heap.AtomicStore(n.Base()+f, w)
		}
	}
	privatizations := 0
	for it := 0; it < iterations; it++ {
		pl, err := priv.Privatize(func(tx *Tx) (Addr, int) {
			n := tx.LoadAddr(head)
			tx.StoreAddr(head, Nil)
			return n, f1NodeW
		})
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		for n := pl; n.Base() != Nil; n = n.Follow(f1Next, f1NodeW) {
			a, b := load(n, f1A), load(n, f1B)
			if a != b {
				delayedCleanup.Add(1)
			}
			store(n, f1A, a+2)
			// A busy delay, not Gosched: yielding here would park the
			// privatizer behind the reader loops for a whole quantum on
			// a small machine without widening the race.
			busyDelay()
			store(n, f1B, a+2)
		}
		privatizations++
		_ = priv.Atomic(func(tx *Tx) { tx.StoreAddr(head, pl.Base()) })
	}
	stop.Store(true)
	wg.Wait()
	closeAll(t, ths...)

	// Final audit: every node must satisfy the invariant.
	finalCorrupt := 0
	if err := s.Quiescent(func(h Private) {
		for _, n := range list {
			if h.Load(n+f1A) != h.Load(n+f1B) {
				finalCorrupt++
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("privatizations=%d txOps=%d delayedCleanup=%d doomedReads=%d finalCorrupt=%d",
		privatizations, txOps.Load(), delayedCleanup.Load(), doomedReads.Load(), finalCorrupt)
	t.Log(got)
	if delayedCleanup.Load() != 0 || doomedReads.Load() != 0 || finalCorrupt != 0 {
		t.Errorf("privatization violation under %v: %s", alg, got)
	}
	if privatizations == 0 {
		t.Error("stressor made no progress")
	}
}

//go:noinline
func busySpinIter() {}

// busyDelay burns roughly a microsecond without yielding the processor.
func busyDelay() {
	for i := 0; i < 2000; i++ {
		busySpinIter()
	}
}

// publication runs one publication-by-store stress: each of 2 publishers
// privatizes its node, initializes three fields to one value with
// uninstrumented stores, and publishes the node through its slot by a
// transactional store, 300 times; 2 readers transactionally load each slot
// and check that the three fields agree.
func publication(t *testing.T, alg Algorithm, plain bool) {
	const publishers, readers, iterations = 2, 2, 300
	s, err := New(Config{
		Algorithm:  alg,
		HeapWords:  1 << 14,
		OrecCount:  1 << 8,
		MaxThreads: publishers + readers,
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := s.MustAlloc(publishers)
	var torn, published, observations atomic.Int64
	var stop atomic.Bool
	var wg, pubWG sync.WaitGroup
	var ths []*Thread

	for r := 0; r < readers; r++ {
		th := s.MustNewThread()
		ths = append(ths, th)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for p := 0; p < publishers; p++ {
					slot := slots + Addr(p)
					_ = th.Atomic(func(tx *Tx) {
						n := tx.LoadAddr(slot)
						if n == Nil {
							return
						}
						a, b, c := tx.Load(n), tx.Load(n+1), tx.Load(n+2)
						observations.Add(1)
						if a != b || b != c {
							torn.Add(1)
						}
					})
				}
			}
		}()
	}

	for p := 0; p < publishers; p++ {
		th := s.MustNewThread()
		ths = append(ths, th)
		slot := slots + Addr(p)
		node := s.MustAlloc(3)
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			v := Word(1)
			for i := 0; i < iterations; i++ {
				// Privatizing the node makes this round's plain
				// initialization legal: it was never published (first
				// round) or was published last round.
				mine, err := th.Privatize(func(tx *Tx) (Addr, int) {
					tx.StoreAddr(slot, Nil)
					return node, 3
				})
				if err != nil {
					t.Error(err)
					return
				}
				for f := Addr(0); f < 3; f++ {
					if plain {
						mine.Store(f, v)
					} else {
						s.rt.Heap.AtomicStore(node+f, v)
					}
				}
				_ = th.Atomic(func(tx *Tx) { tx.StoreAddr(slot, node) })
				published.Add(1)
				v += 3
			}
		}()
	}
	pubWG.Wait()
	stop.Store(true)
	wg.Wait()
	closeAll(t, ths...)
	t.Logf("published=%d observations=%d torn=%d", published.Load(), observations.Load(), torn.Load())
	if n := torn.Load(); n != 0 {
		t.Errorf("%v: %d torn publications observed", alg, n)
	}
	if n := published.Load(); n != publishers*iterations {
		t.Errorf("published = %d, want %d", n, publishers*iterations)
	}
}
