package bench

import (
	"fmt"
	"sort"

	stm "privstm"
	"privstm/internal/rng"
)

// The multi-list microbenchmark of §V: a collection of 64 independent
// sorted linked lists with 64 (moderate) or 512 (large) entries each —
// "transactions accessing several dozen to hundreds of locations".
//
// A key selects its list by modulus, so transactions on different lists
// are data-parallel; within a list, a sorted search visits half the
// entries on average.
type multilist struct {
	heads   stm.Addr // nlist consecutive head words
	nlist   int
	entries int // per-list key range; lists hover around half full
}

// MultiList returns the spec for the multi-list benchmark. The paper's
// parameters are (64, 64) and (64, 512).
func MultiList(lists, entries int) Spec {
	if lists <= 0 {
		lists = 64
	}
	if entries <= 0 {
		entries = 64
	}
	totalKeys := lists * entries
	return Spec{
		Name:      fmt.Sprintf("multi-list %dx%d", lists, entries),
		HeapWords: 1<<14 + 4*totalKeys*htNodeWords,
		OrecCount: 1 << 14,
		Build: func(s *stm.STM, r *rng.RNG) (Instance, error) {
			heads, err := s.Alloc(lists)
			if err != nil {
				return nil, err
			}
			m := &multilist{heads: heads, nlist: lists, entries: entries}
			// Pre-populate every list to half its key range.
			for k := 0; k < totalKeys; k += 2 {
				n, err := s.Alloc(htNodeWords)
				if err != nil {
					return nil, err
				}
				s.DirectStore(n+htKey, stm.Word(k))
				m.insertDirect(s, n, stm.Word(k))
			}
			return m, nil
		},
	}
}

func (m *multilist) headOf(k stm.Word) stm.Addr {
	return m.heads + stm.Addr(int(k)%m.nlist)
}

func (m *multilist) insertDirect(s *stm.STM, n stm.Addr, k stm.Word) {
	head := m.headOf(k)
	prev, cur := head, stm.Addr(s.DirectLoad(head))
	for cur != stm.Nil && s.DirectLoad(cur+htKey) < k {
		prev, cur = cur+htNext, stm.Addr(s.DirectLoad(cur+htNext))
	}
	s.DirectStore(n+htNext, stm.Word(cur))
	s.DirectStore(prev, stm.Word(n))
}

// Op performs one insert, delete or lookup of a uniformly random key in
// the key's home list.
func (m *multilist) Op(ctx *OpCtx, mix Mix) {
	k := stm.Word(ctx.Key(m.nlist * m.entries))
	p := ctx.RNG.Pct()
	head := m.headOf(k)
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
						return
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
func (m *multilist) Check(s *stm.STM) error {
	for l := 0; l < m.nlist; l++ {
		var last stm.Word
		first := true
		steps := 0
		for cur := stm.Addr(s.DirectLoad(m.heads + stm.Addr(l))); cur != stm.Nil; cur = stm.Addr(s.DirectLoad(cur + htNext)) {
			k := s.DirectLoad(cur + htKey)
			if int(k)%m.nlist != l {
				return fmt.Errorf("list %d holds key %d", l, k)
			}
			if !first && k <= last {
				return fmt.Errorf("list %d unsorted: %d after %d", l, k, last)
			}
			last, first = k, false
			if steps++; steps > m.entries+1 {
				return fmt.Errorf("list %d has a cycle", l)
			}
		}
	}
	return nil
}

// Size counts the elements.
func (m *multilist) Size(s *stm.STM) int {
	n := 0
	for l := 0; l < m.nlist; l++ {
		for cur := stm.Addr(s.DirectLoad(m.heads + stm.Addr(l))); cur != stm.Nil; cur = stm.Addr(s.DirectLoad(cur + htNext)) {
			n++
		}
	}
	return n
}

// Dump returns the key set in ascending order.
func (m *multilist) Dump(s *stm.STM) []uint64 {
	var out []uint64
	for b := 0; b < m.nlist; b++ {
		for cur := stm.Addr(s.DirectLoad(m.heads + stm.Addr(b))); cur != stm.Nil; cur = stm.Addr(s.DirectLoad(cur + htNext)) {
			out = append(out, uint64(s.DirectLoad(cur+htKey)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
