// Package tlib provides transactional data structures built entirely on
// the public stm API: queues, stacks, maps, sets and counters whose
// operations take a *stm.Tx and therefore compose — several operations on
// several structures can run inside one atomic block, and privatizing a
// whole structure is one pointer swap.
//
// Memory management follows the discipline the STM makes natural: each
// structure owns a fixed pool of nodes and an intrusive *transactional*
// free list. Allocation and deallocation are ordinary transactional reads
// and writes of the free-list head, so an aborted transaction's allocations
// roll back with everything else — no leaks, no unsafe reclamation, and
// nodes are never recycled while a doomed reader could still dereference
// them (its timestamp validation aborts it first).
//
// Conflict detection here is word-level: every read a traversal performs
// is logged and validated, so structurally adjacent but semantically
// disjoint operations (two keys in one bucket chain, a producer and a
// consumer sharing a queue's size word) can abort each other. That makes
// these structures the measured baseline for internal/tds, whose semantic
// containers certify traversals with abstract locks instead (see
// EXPERIMENTS.md "Semantic conflict detection").
package tlib

import (
	"errors"
	"fmt"

	stm "privstm"
)

// ErrFull is returned when a structure's node pool is exhausted.
var ErrFull = errors.New("tlib: structure capacity exhausted")

// pool is a capacity-bounded transactional node allocator: a singly linked
// free list threaded through word 0 of each node.
type pool struct {
	free stm.Addr // word holding the free-list head
}

// newPool carves capacity nodes of nodeWords words out of s and links them
// onto the free list. Layout requirement: word 0 of a pooled node is the
// link word while the node is free (structures reuse it as their own link
// field once allocated).
func newPool(s *stm.STM, capacity, nodeWords int) (pool, error) {
	if capacity <= 0 {
		return pool{}, fmt.Errorf("tlib: capacity %d must be positive", capacity)
	}
	if nodeWords < 1 {
		return pool{}, fmt.Errorf("tlib: nodeWords %d must be ≥ 1", nodeWords)
	}
	head, err := s.Alloc(1)
	if err != nil {
		return pool{}, err
	}
	nodes, err := s.Alloc(capacity * nodeWords)
	if err != nil {
		return pool{}, err
	}
	prev := stm.Nil
	for i := capacity - 1; i >= 0; i-- {
		n := nodes + stm.Addr(i*nodeWords)
		s.DirectStore(n, stm.Word(prev))
		prev = n
	}
	s.DirectStore(head, stm.Word(prev))
	return pool{free: head}, nil
}

// alloc pops a node transactionally; returns ErrFull when drained.
func (p pool) alloc(tx *stm.Tx) (stm.Addr, error) {
	n := tx.LoadAddr(p.free)
	if n == stm.Nil {
		return stm.Nil, ErrFull
	}
	tx.StoreAddr(p.free, tx.LoadAddr(n))
	return n, nil
}

// release pushes a node back transactionally.
func (p pool) release(tx *stm.Tx, n stm.Addr) {
	tx.StoreAddr(n, tx.LoadAddr(p.free))
	tx.StoreAddr(p.free, n)
}

// freeCount walks the free list outside any transaction (tests only).
func (p pool) freeCount(s *stm.STM) int {
	n := 0
	for cur := stm.Addr(s.DirectLoad(p.free)); cur != stm.Nil; cur = stm.Addr(s.DirectLoad(cur)) {
		n++
	}
	return n
}
