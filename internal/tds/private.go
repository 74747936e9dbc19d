package tds

import stm "privstm"

// PrivateList is a privatized chain of nodes handed out by the escape-hatch
// operations (Map.PrivateSnapshot, Queue.DrainPrivate). It wraps the
// stm.Private that Thread.Privatize returns for the chain's first node, so
// the privatizing transaction has committed and quiesced before a
// PrivateList exists, and the nodes are walked with plain uninstrumented
// loads (Private.Follow) — no transactions, no orecs, no logging.
//
// The extents still live in the STM heap and MUST be returned to it:
// call Retire (or retire each node yourself) when done, or the words leak
// until process exit.
//
// A PrivateList is returned by value, so the hand-off allocates nothing,
// but it owns its chain and must not be copied: a copy would let the same
// nodes be retired twice. go vet's copylocks check rejects copies (see
// noCopy); hold it in the variable the call returned into.
type PrivateList struct {
	_     noCopy      // first, so the zero-size field adds no padding
	head  stm.Private // first node, its extent one node; empty once retired
	Count int         // number of nodes in the chain
}

// noCopy makes go vet -copylocks reject copies of the struct embedding it
// (the sync package's idiom). It is zero-size and its methods do nothing.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Each walks the chain, calling fn with each node until fn returns false.
// The next pointer is word 0 of every node; Follow ignores its mark bit (a
// privatized map chain can contain nodes that were marked by a Delete
// racing the snapshot's doomed rivals — the link words are committed
// state, the marks are dead metadata).
func (p *PrivateList) Each(fn func(node stm.Private) bool) {
	for n := p.head; n.Base() != stm.Nil; n = n.Follow(0, n.Words()) {
		if !fn(n) {
			return
		}
	}
}

// EachKV walks a privatized map chain, calling fn with each node's key and
// value until fn returns false. Panics if a non-empty list did not come
// from Map.PrivateSnapshot (queue nodes carry no key).
func (p *PrivateList) EachKV(fn func(k, v stm.Word) bool) {
	if w := p.head.Words(); w != 0 && w != mapNodeWords {
		panic("tds: EachKV on a non-map private list")
	}
	for n := p.head; n.Base() != stm.Nil; n = n.Follow(0, mapNodeWords) {
		if !fn(n.Load(1), n.Load(2)) {
			return
		}
	}
}

// EachValue walks a privatized queue chain, calling fn with each node's
// value until fn returns false. Panics if a non-empty list did not come
// from Queue.DrainPrivate.
func (p *PrivateList) EachValue(fn func(v stm.Word) bool) {
	if w := p.head.Words(); w != 0 && w != queueNodeWords {
		panic("tds: EachValue on a non-queue private list")
	}
	p.Each(func(n stm.Private) bool {
		return fn(n.Load(1))
	})
}

// Retire walks the chain and hands every node's extent to th's epoch
// reclaimer, emptying the list.
func (p *PrivateList) Retire(th *stm.Thread) {
	for n := p.head; n.Base() != stm.Nil; {
		next := n.Follow(0, n.Words())
		th.Retire(n.Base(), n.Words())
		n = next
	}
	p.head = stm.Private{}
	p.Count = 0
}

// PrivateSnapshot detaches bucket b wholesale and returns its chain for
// uninstrumented traversal. The transaction write-acquires b's bucket
// stripe — the abstract lock every operation on the bucket samples — so
// any concurrent Put/Get/Delete in b whose weak traversal overlapped the
// snapshot is doomed at its own commit, even though its logged word set is
// disjoint from the single head word written here. The walk itself uses
// logged reads: the count must be commit-exact, and logged validation kills
// doomed walks promptly (a weak walk inside a doomed transaction could
// chase reused memory).
//
// After the commit, the calling thread quiesces weak readers
// (Thread.WeakQuiesce) before the chain is handed out: invisible weak
// traversals are not covered by the engine's privatization fence, and one
// could still hold pre-snapshot pointers into the chain. See
// CORRECTNESS.md §15.
func (m *Map) PrivateSnapshot(th *stm.Thread, b int) (PrivateList, error) {
	if !m.s.Algorithm().Safe() {
		return PrivateList{}, ErrNotPrivatizationSafe
	}
	var count int
	head, err := th.Privatize(func(tx *stm.Tx) (stm.Addr, int) {
		tx.SemSample(m.sem, m.bucketStripe(b))
		tx.SemIntendWrite(m.sem, m.bucketStripe(b))
		head := tx.LoadAddr(m.head(b))
		count = 0
		for n := head; n != stm.Nil; n = unmark(tx.Load(n)) {
			count++
		}
		tx.StoreAddr(m.head(b), stm.Nil)
		if count > 0 {
			tx.SemDelta(m.sem, 0, m.size, ^stm.Word(uint64(count)-1)) // -count
		}
		return head, mapNodeWords
	})
	if err != nil {
		return PrivateList{}, err
	}
	th.WeakQuiesce()
	return PrivateList{head: head, Count: count}, nil
}

// DrainPrivate detaches the queue's entire chain and returns it for
// uninstrumented traversal, leaving the queue empty. Head and tail are
// rewritten with logged (privatizing) stores; the logged walk makes the
// count commit-exact and keeps doomed walks finite. The same post-commit
// weak-reader quiescence as PrivateSnapshot applies before the chain is
// handed out.
func (q *Queue) DrainPrivate(th *stm.Thread) (PrivateList, error) {
	if !q.s.Algorithm().Safe() {
		return PrivateList{}, ErrNotPrivatizationSafe
	}
	var count int
	head, err := th.Privatize(func(tx *stm.Tx) (stm.Addr, int) {
		head := tx.LoadAddr(q.head)
		count = 0
		for n := head; n != stm.Nil; n = tx.LoadAddr(n) {
			count++
		}
		tx.StoreAddr(q.head, stm.Nil)
		tx.StoreAddr(q.tail, stm.Nil)
		if count > 0 {
			tx.SemDelta(q.sem, 0, q.size, ^stm.Word(uint64(count)-1)) // -count
		}
		return head, queueNodeWords
	})
	if err != nil {
		return PrivateList{}, err
	}
	th.WeakQuiesce()
	return PrivateList{head: head, Count: count}, nil
}
