// Package tds provides transactional data structures with *semantic*
// conflict detection, layered over the word STM in the style of Proust /
// transactional boosting ("A Design Space for Highly-Concurrent
// Transactional Data Structures", PAPERS.md): each operation maps to an
// abstract lock — a stripe in an stm.SemTable keyed by the operation's key
// or predicate — and the commit protocol validates and acquires stripes
// alongside the word-level orecs.
//
// The point is killing false aborts. Word-level containers abort
// structurally adjacent but semantically disjoint operations: a Put on one
// key invalidates a Get of a different key in the same bucket list, and
// every queue operation serializes on the size word. The tds containers
// instead traverse with *unlogged weak reads* (stm.Tx.LoadWeak) certified
// by key and bucket stripes, mutate through a minimal set of logged words
// (the edge being rewritten), and maintain counters as commuting deltas
// (stm.Tx.SemDelta) that skip validation entirely — so two transactions
// touching different keys of one bucket, or a producer and a consumer on
// one queue, never conflict.
//
// The privatization escape hatch — Map.PrivateSnapshot, Queue.DrainPrivate
// — is what the underlying paper's fences make possible and what plain
// boosting cannot offer: a bucket or a whole queue segment is detached with
// a privatizing transactional write (stm.Thread.Privatize) and handed out
// through the stm.Private handle it returns for zero-instrumentation
// traversal, then retired through the epoch reclaimer. Safety is the Khyzha/Gotsman/Attiya criterion plus one extra
// obligation the weak reads introduce, discharged by Thread.WeakQuiesce
// (CORRECTNESS.md §15).
//
// Every algorithm's commit runs the abstract-lock hooks (core.Policy.Commit);
// the escape hatch additionally requires a privatization-safe algorithm
// (everything but TL2).
package tds

import (
	"errors"

	stm "privstm"
)

// ErrNotPrivatizationSafe is returned by the escape-hatch operations under
// the TL2 baseline: handing out privatized extents for uninstrumented
// access is exactly what an unsafe algorithm cannot license.
var ErrNotPrivatizationSafe = errors.New("tds: escape hatch requires a privatization-safe algorithm (not TL2)")

// markBit flags a map node's next word as logically deleted (Harris-style
// lazy list): the deleting transaction writes mark|successor into the
// victim's next word in the same transaction that unlinks it, so a weak
// traversal holding the victim can still step over it to the live suffix.
const markBit stm.Word = 1 << 63

func marked(w stm.Word) bool     { return w&markBit != 0 }
func unmark(w stm.Word) stm.Addr { return stm.Addr(w &^ markBit) }
