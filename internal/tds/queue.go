package tds

import stm "privstm"

// Queue is a transactional FIFO queue with semantic conflict detection.
// Structurally it is a plain linked queue — meta words [head, tail, size],
// nodes [next, value] — but the size word is maintained as a commuting delta
// on stripe 0 instead of a logged read-modify-write, so Push never conflicts
// with Pop through the counter and Len never conflicts with either. The
// remaining word-level footprint is inherent: concurrent Pushes serialize
// on the tail word and concurrent Pops on the head word, exactly the pairs
// that do not commute.
type Queue struct {
	s    *stm.STM
	sem  *stm.SemTable
	head stm.Addr
	tail stm.Addr
	size stm.Addr
}

const queueNodeWords = 2

// NewQueue allocates an empty queue.
func NewQueue(s *stm.STM) (*Queue, error) {
	m, err := s.Alloc(3)
	if err != nil {
		return nil, err
	}
	return &Queue{s: s, sem: stm.NewSemTable(2), head: m, tail: m + 1, size: m + 2}, nil
}

// Push appends v inside tx.
func (q *Queue) Push(tx *stm.Tx, v stm.Word) {
	n := tx.MustAllocTxn(queueNodeWords)
	tx.StoreAddr(n, stm.Nil)
	tx.Store(n+1, v)
	t := tx.LoadAddr(q.tail)
	if t == stm.Nil {
		tx.StoreAddr(q.head, n)
	} else {
		tx.StoreAddr(t, n)
	}
	tx.StoreAddr(q.tail, n)
	tx.SemDelta(q.sem, 0, q.size, 1)
}

// Pop removes and returns the oldest element inside tx.
func (q *Queue) Pop(tx *stm.Tx) (v stm.Word, ok bool) {
	h := tx.LoadAddr(q.head)
	if h == stm.Nil {
		// Emptiness is witnessed by the logged head read; a concurrent Push
		// rewriting head is a word-level conflict, as it must be (Pop on an
		// empty queue does not commute with Push).
		return 0, false
	}
	v = tx.Load(h + 1)
	next := tx.LoadAddr(h)
	tx.StoreAddr(q.head, next)
	if next == stm.Nil {
		tx.StoreAddr(q.tail, stm.Nil)
	}
	tx.SemDelta(q.sem, 0, q.size, ^stm.Word(0)) // -1
	tx.RetireOnCommit(h, queueNodeWords)
	return v, true
}

// Peek returns the oldest element without removing it.
func (q *Queue) Peek(tx *stm.Tx) (v stm.Word, ok bool) {
	h := tx.LoadAddr(q.head)
	if h == stm.Nil {
		return 0, false
	}
	return tx.Load(h + 1), true
}

// Len returns the element count inside tx: one weak read of the size word
// under the counter stripe (plus this transaction's own pending deltas),
// conflicting only with committed size changes.
func (q *Queue) Len(tx *stm.Tx) int {
	tx.SemSample(q.sem, 0)
	return int(tx.LoadWeak(q.size) + tx.SemPending(q.size))
}
