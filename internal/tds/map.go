package tds

import stm "privstm"

// Map is a transactional hash map from word keys to word values with
// key-level (semantic) conflict detection: fixed buckets of sorted singly
// linked lists, traversed with unlogged weak reads certified by
// abstract-lock stripes instead of a logged read per link.
//
// Stripe layout (one SemTable per map):
//
//	stripe 0                    — commuting counters (the size word), never
//	                              write-acquired
//	stripes 1 .. nbkt           — bucket stripes: sampled by every operation
//	                              on that bucket, write-acquired only by
//	                              PrivateSnapshot (the predicate "this
//	                              bucket's membership, wholesale")
//	stripes nbkt+1 .. nbkt+nstr — key stripes: sampled by every operation on
//	                              a key, write-acquired by Put and Delete
//
// Two operations conflict iff their stripe footprints intersect in a
// read/write or write/write pair — touching different keys of one bucket
// never conflicts, which is the false-abort kill this package exists for.
//
// Node layout: [next|mark, key, value].
type Map struct {
	s       *stm.STM
	sem     *stm.SemTable
	buckets stm.Addr // nbkt head words, then the size word
	nbkt    int
	nstr    int // key-stripe count
	size    stm.Addr
}

const mapNodeWords = 3

// NewMap allocates a map with the given bucket count and key-stripe count
// (both rounded up to ≥1). More key stripes mean fewer same-stripe false
// conflicts between distinct keys; nbkt+nstr+1 stripes are allocated.
func NewMap(s *stm.STM, buckets, stripes int) (*Map, error) {
	if buckets < 1 {
		buckets = 1
	}
	if stripes < 1 {
		stripes = 1
	}
	b, err := s.Alloc(buckets + 1)
	if err != nil {
		return nil, err
	}
	return &Map{
		s:       s,
		sem:     stm.NewSemTable(1 + buckets + stripes),
		buckets: b,
		nbkt:    buckets,
		nstr:    stripes,
		size:    b + stm.Addr(buckets),
	}, nil
}

func hashKey(k stm.Word) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 >> 17 }

func (m *Map) bucketIndex(k stm.Word) int { return int(hashKey(k) % uint64(m.nbkt)) }

func (m *Map) head(b int) stm.Addr { return m.buckets + stm.Addr(b) }

// bucketStripe is the wholesale-membership predicate stripe of bucket b.
func (m *Map) bucketStripe(b int) uint32 { return uint32(1 + b) }

// keyStripe is the per-key abstract lock of k.
func (m *Map) keyStripe(k stm.Word) uint32 {
	return uint32(1 + m.nbkt + int(hashKey(k)>>13%uint64(m.nstr)))
}

// findWeak walks k's bucket with weak reads, returning the address of the
// link word pointing at the first node with key ≥ k, and that node (or
// Nil). Marked nodes are stepped over without advancing the link: their
// next pointers survive marking (mark|succ), so a traversal that caught a
// node mid-deletion still reaches the live suffix — the Harris lazy-list
// move that keeps weak traversals sound (CORRECTNESS.md §15).
func (m *Map) findWeak(tx *stm.Tx, k stm.Word) (link, node stm.Addr) {
	link = m.head(m.bucketIndex(k))
	node = tx.LoadWeakAddr(link)
	for node != stm.Nil {
		raw := tx.LoadWeak(node)
		if marked(raw) {
			node = unmark(raw)
			continue
		}
		if tx.LoadWeak(node+1) >= k {
			break
		}
		link = node // next word is word 0: the node address is the link
		node = stm.Addr(raw)
	}
	return link, node
}

// sampleFor records the stripe footprint of an operation on key k: the
// bucket stripe (invalidated by PrivateSnapshot) and the key stripe.
func (m *Map) sampleFor(tx *stm.Tx, k stm.Word) {
	tx.SemSample(m.sem, m.bucketStripe(m.bucketIndex(k)))
	tx.SemSample(m.sem, m.keyStripe(k))
}

// Get returns the value for k inside tx. The traversal is entirely weak:
// no word-level read is logged, so Get conflicts only with operations on
// k's stripe (Put/Delete of a same-stripe key, or a snapshot of the
// bucket) — never with structural churn elsewhere in the bucket.
func (m *Map) Get(tx *stm.Tx, k stm.Word) (v stm.Word, ok bool) {
	m.sampleFor(tx, k)
	_, node := m.findWeak(tx, k)
	if node == stm.Nil || tx.LoadWeak(node+1) != k {
		return 0, false
	}
	return tx.LoadWeak(node + 2), true
}

// Put inserts or updates k → v inside tx. Only the rewritten link word (and
// the new node) is logged; the size change rides a commuting delta.
func (m *Map) Put(tx *stm.Tx, k, v stm.Word) {
	m.sampleFor(tx, k)
	tx.SemIntendWrite(m.sem, m.keyStripe(k))
	link, node := m.findWeak(tx, k)
	if node != stm.Nil && tx.LoadWeak(node+1) == k {
		// Update in place. Membership of node is certified by the key
		// stripe: a concurrent Delete(k) bumps it and dooms this commit, so
		// the logged value store cannot land on an unlinked node.
		tx.Store(node+2, v)
		return
	}
	// Insert: pin the edge with a logged read — the weakly observed (link,
	// node) pair must still be the committed state, and the logged entry
	// makes every later rewrite of this edge a word-level conflict.
	if tx.LoadAddr(link) != node {
		tx.Retry()
	}
	n := tx.MustAllocTxn(mapNodeWords)
	tx.StoreAddr(n, node)
	tx.Store(n+1, k)
	tx.Store(n+2, v)
	tx.StoreAddr(link, n)
	tx.SemDelta(m.sem, 0, m.size, 1)
}

// Delete removes k inside tx, reporting whether it was present. The victim
// is marked (mark|successor into its next word) and unlinked in the same
// transaction, and its extent is retired through the epoch reclaimer iff
// the transaction commits.
func (m *Map) Delete(tx *stm.Tx, k stm.Word) bool {
	m.sampleFor(tx, k)
	tx.SemIntendWrite(m.sem, m.keyStripe(k))
	link, node := m.findWeak(tx, k)
	if node == stm.Nil || tx.LoadWeak(node+1) != k {
		return false
	}
	if tx.LoadAddr(link) != node {
		tx.Retry() // edge moved since the weak traversal
	}
	raw := tx.Load(node) // logged: the successor we splice to must hold
	if marked(raw) {
		tx.Retry() // lost a race with another Delete(k); stripe will confirm
	}
	tx.Store(node, raw|markBit)
	tx.StoreAddr(link, stm.Addr(raw))
	tx.SemDelta(m.sem, 0, m.size, ^stm.Word(0)) // -1, two's complement
	tx.RetireOnCommit(node, mapNodeWords)
	return true
}

// Len returns the entry count inside tx: one weak read of the size word
// under the counter stripe, plus this transaction's own pending deltas.
// Len conflicts only with committed size *changes*, not with
// updates-in-place or other readers.
func (m *Map) Len(tx *stm.Tx) int {
	tx.SemSample(m.sem, 0)
	return int(tx.LoadWeak(m.size) + tx.SemPending(m.size))
}

// Buckets returns the bucket count.
func (m *Map) Buckets() int { return m.nbkt }
