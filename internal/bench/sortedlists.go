package bench

import (
	"fmt"
	"sort"

	stm "privstm"
	"privstm/internal/rng"
)

// The hashtable and multi-list microbenchmarks of §V are one structure at
// two list lengths: an array of sorted singly linked lists of [next, key]
// nodes whose head words are contiguous. A key selects its list by
// modulus, so transactions on different lists are data-parallel; within a
// list, a sorted search visits half the entries on average.
const htNodeWords = 2

const (
	htNext = 0
	htKey  = 1
)

type sortedLists struct {
	heads  stm.Addr // n consecutive head words
	n      int
	keys   int // key range; the lists hover around half full
	maxLen int // the longest a list can be; a longer walk is a cycle
}

// Hashtable returns the spec for the paper's hashtable benchmark: 64
// buckets over 256 keys, "very short transactions". The defaults (64,
// 256) are the paper's parameters.
func Hashtable(buckets, keys int) Spec {
	if buckets <= 0 {
		buckets = 64
	}
	if keys <= 0 {
		keys = 256
	}
	return sortedListsSpec(fmt.Sprintf("hashtable %db/%dk", buckets, keys), 1<<12, buckets, keys, keys+1)
}

// MultiList returns the spec for the multi-list benchmark: 64 independent
// sorted lists with 64 (moderate) or 512 (large) entries each,
// "transactions accessing several dozen to hundreds of locations". The
// paper's parameters are (64, 64) and (64, 512).
func MultiList(lists, entries int) Spec {
	if lists <= 0 {
		lists = 64
	}
	if entries <= 0 {
		entries = 64
	}
	return sortedListsSpec(fmt.Sprintf("multi-list %dx%d", lists, entries), 1<<14, lists, lists*entries, entries+1)
}

func sortedListsSpec(name string, orecs, n, keys, maxLen int) Spec {
	return Spec{
		Name:      name,
		HeapWords: 1<<14 + 4*keys*htNodeWords,
		OrecCount: orecs,
		Build: func(s *stm.STM, r *rng.RNG) (Instance, error) {
			heads, err := s.Alloc(n)
			if err != nil {
				return nil, err
			}
			l := &sortedLists{heads: heads, n: n, keys: keys, maxLen: maxLen}
			// Pre-populate with half the key space, built directly (no
			// thread exists yet).
			if qerr := s.Quiescent(func(h stm.Private) {
				for k := 0; k < keys && err == nil; k += 2 {
					var node stm.Addr
					if node, err = s.Alloc(htNodeWords); err == nil {
						h.Store(node+htKey, stm.Word(k))
						l.insertDirect(h, node, stm.Word(k))
					}
				}
			}); qerr != nil {
				return nil, qerr
			}
			if err != nil {
				return nil, err
			}
			return l, nil
		},
	}
}

func (l *sortedLists) headOf(k stm.Word) stm.Addr {
	return l.heads + stm.Addr(int(k)%l.n)
}

// insertDirect links node n, holding key k, through h, a whole-heap handle
// from Quiescent.
func (l *sortedLists) insertDirect(h stm.Private, n stm.Addr, k stm.Word) {
	head := l.headOf(k)
	prev, cur := head, stm.Addr(h.Load(head))
	for cur != stm.Nil && h.Load(cur+htKey) < k {
		prev, cur = cur+htNext, stm.Addr(h.Load(cur+htNext))
	}
	h.Store(n+htNext, stm.Word(cur))
	h.Store(prev, stm.Word(n))
}

// Op performs one insert, delete or lookup of a uniformly random key in
// the key's home list.
func (l *sortedLists) Op(ctx *OpCtx, mix Mix) {
	k := stm.Word(ctx.Key(l.keys))
	p := ctx.RNG.Pct()
	head := l.headOf(k)
	switch {
	case p < mix.InsertPct:
		n := ctx.AllocNode(htNodeWords)
		var inserted bool
		_ = ctx.Th.Atomic(func(tx *stm.Tx) {
			inserted = false
			prev, cur := head, tx.LoadAddr(head)
			for cur != stm.Nil {
				ck := tx.Load(cur + htKey)
				if ck >= k {
					if ck == k {
						return // already present
					}
					break
				}
				prev, cur = cur+htNext, tx.LoadAddr(cur+htNext)
			}
			tx.Store(n+htKey, k)
			tx.StoreAddr(n+htNext, cur)
			tx.StoreAddr(prev, n)
			inserted = true
		})
		if !inserted {
			ctx.FreeNode(n, htNodeWords)
		}
	case p < mix.InsertPct+mix.DeletePct:
		removed := stm.Nil
		_ = ctx.Th.Atomic(func(tx *stm.Tx) {
			removed = stm.Nil
			prev, cur := head, tx.LoadAddr(head)
			for cur != stm.Nil {
				ck := tx.Load(cur + htKey)
				if ck >= k {
					if ck == k {
						tx.StoreAddr(prev, tx.LoadAddr(cur+htNext))
						removed = cur
					}
					return
				}
				prev, cur = cur+htNext, tx.LoadAddr(cur+htNext)
			}
		})
		if removed != stm.Nil {
			ctx.FreeNode(removed, htNodeWords)
		}
	default:
		var found bool
		_ = ctx.Th.Atomic(func(tx *stm.Tx) {
			cur := tx.LoadAddr(head)
			for cur != stm.Nil && tx.Load(cur+htKey) < k {
				cur = tx.LoadAddr(cur + htNext)
			}
			found = cur != stm.Nil && tx.Load(cur+htKey) == k
		})
		_ = found
	}
}

// Check verifies every list is sorted, duplicate-free, homed correctly,
// and acyclic.
func (l *sortedLists) Check(s *stm.STM) error {
	var err error
	if qerr := s.Quiescent(func(h stm.Private) { err = l.check(h) }); qerr != nil {
		return qerr
	}
	return err
}

func (l *sortedLists) check(h stm.Private) error {
	for i := 0; i < l.n; i++ {
		var last stm.Word
		first := true
		steps := 0
		for cur := h.Follow(l.heads+stm.Addr(i), htNodeWords); cur.Base() != stm.Nil; cur = cur.Follow(htNext, htNodeWords) {
			k := cur.Load(htKey)
			if int(k)%l.n != i {
				return fmt.Errorf("list %d holds key %d", i, k)
			}
			if !first && k <= last {
				return fmt.Errorf("list %d unsorted: %d after %d", i, k, last)
			}
			last, first = k, false
			if steps++; steps > l.maxLen {
				return fmt.Errorf("list %d has a cycle", i)
			}
		}
	}
	return nil
}

// each calls fn with every node of every list, list by list.
func (l *sortedLists) each(s *stm.STM, fn func(node stm.Private)) {
	quiescent(s, func(h stm.Private) {
		for i := 0; i < l.n; i++ {
			for cur := h.Follow(l.heads+stm.Addr(i), htNodeWords); cur.Base() != stm.Nil; cur = cur.Follow(htNext, htNodeWords) {
				fn(cur)
			}
		}
	})
}

// Size counts the elements.
func (l *sortedLists) Size(s *stm.STM) int {
	n := 0
	l.each(s, func(stm.Private) { n++ })
	return n
}

// Dump returns the key set in ascending order.
func (l *sortedLists) Dump(s *stm.STM) []uint64 {
	var out []uint64
	l.each(s, func(node stm.Private) { out = append(out, uint64(node.Load(htKey))) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
