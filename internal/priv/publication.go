package priv

import (
	"sync"
	"sync/atomic"

	stm "privstm"
)

// PubConfig parameterizes the publication stressor.
//
// Publication is privatization's mirror image: a thread initializes data
// *privately* (plain stores, no instrumentation) and then publishes it with
// a single transactional pointer store. The paper does not solve the
// general publication problem (footnote 1) but states its solutions
// "support the intuitive publication-by-store idiom": any transaction that
// observes the published pointer must also observe the private
// initialization writes that preceded it.
type PubConfig struct {
	Algorithm  stm.Algorithm
	Publishers int
	Readers    int
	Iterations int
	// AtomicPrivate uses atomic stores for the publisher's private
	// initialization. As with Config.AtomicPrivate: the fence-complete
	// engines (Val, pvrBase/CAS/Store) are genuinely race-free with plain
	// stores because re-privatization fences out every covered reader,
	// while the validation-based engines (Ord, pvrWriterOnly invisible
	// mode, pvrHybrid invisible mode) discard — but physically perform —
	// doomed loads, as their TSO-hosted originals did.
	AtomicPrivate bool
}

// PubResult reports the observations.
type PubResult struct {
	// Torn counts transactional reads that reached a published node and
	// found it incompletely initialized.
	Torn atomic.Int64
	// Published is the number of publish operations completed.
	Published atomic.Int64
	// Observations is the number of reader transactions that saw a node.
	Observations atomic.Int64
}

// RunPublication executes the stressor: each publisher repeatedly takes a
// node from its private pool, initializes three fields privately to one
// value, publishes it through a shared slot transactionally, and later
// un-publishes (re-privatizes) it; readers transactionally load the slot
// and verify the three fields agree.
func RunPublication(cfg PubConfig) (*PubResult, error) {
	if cfg.Publishers <= 0 {
		cfg.Publishers = 1
	}
	if cfg.Readers <= 0 {
		cfg.Readers = 2
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 500
	}
	s, err := stm.New(stm.Config{
		Algorithm:  cfg.Algorithm,
		HeapWords:  1 << 14,
		OrecCount:  1 << 8,
		MaxThreads: cfg.Publishers + cfg.Readers,
	})
	if err != nil {
		return nil, err
	}
	res := &PubResult{}
	slots := s.MustAlloc(cfg.Publishers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var ths []*stm.Thread

	for r := 0; r < cfg.Readers; r++ {
		th := s.MustNewThread()
		ths = append(ths, th)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for p := 0; p < cfg.Publishers; p++ {
					slot := slots + stm.Addr(p)
					_ = th.Atomic(func(tx *stm.Tx) {
						n := tx.LoadAddr(slot)
						if n == stm.Nil {
							return
						}
						a, b, c := tx.Load(n), tx.Load(n+1), tx.Load(n+2)
						res.Observations.Add(1)
						if a != b || b != c {
							res.Torn.Add(1)
						}
					})
				}
			}
		}()
	}

	var pubWG sync.WaitGroup
	for p := 0; p < cfg.Publishers; p++ {
		th := s.MustNewThread()
		ths = append(ths, th)
		slot := slots + stm.Addr(p)
		node := s.MustAlloc(3)
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			v := stm.Word(1)
			for i := 0; i < cfg.Iterations; i++ {
				// Privatize the node (transparent privatization!) so this
				// round's plain initialization is legal: it was never
				// published (first round) or was published last round.
				mine, err := th.Privatize(func(tx *stm.Tx) (stm.Addr, int) {
					tx.StoreAddr(slot, stm.Nil)
					return node, 3
				})
				if err != nil {
					panic(err)
				}
				// Private initialization: uninstrumented stores.
				for f := stm.Addr(0); f < 3; f++ {
					if cfg.AtomicPrivate {
						s.AtomicStore(node+f, v)
					} else {
						mine.Store(f, v)
					}
				}
				// Publish by store.
				_ = th.Atomic(func(tx *stm.Tx) { tx.StoreAddr(slot, node) })
				res.Published.Add(1)
				v += 3
			}
		}()
	}
	pubWG.Wait()
	stop.Store(true)
	wg.Wait()
	for _, th := range ths {
		if err := th.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
