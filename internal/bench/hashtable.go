package bench

import (
	"fmt"
	"sort"

	stm "privstm"
	"privstm/internal/rng"
)

// The hashtable microbenchmark of §V: 64 buckets over 256 keys — "very
// short transactions". Each bucket is a sorted singly linked list of
// [next, key] nodes; bucket heads are contiguous words.
const htNodeWords = 2

const (
	htNext = 0
	htKey  = 1
)

type hashtable struct {
	buckets stm.Addr // buckets consecutive head words
	nbkt    int
	keys    int
}

// Hashtable returns the spec for the paper's hashtable benchmark.
// The defaults (64, 256) are the paper's parameters.
func Hashtable(buckets, keys int) Spec {
	if buckets <= 0 {
		buckets = 64
	}
	if keys <= 0 {
		keys = 256
	}
	return Spec{
		Name:      fmt.Sprintf("hashtable %db/%dk", buckets, keys),
		HeapWords: 1<<14 + 4*keys*htNodeWords,
		OrecCount: 1 << 12,
		Build: func(s *stm.STM, r *rng.RNG) (Instance, error) {
			b, err := s.Alloc(buckets)
			if err != nil {
				return nil, err
			}
			h := &hashtable{buckets: b, nbkt: buckets, keys: keys}
			// Pre-populate with half the key space, built directly (the
			// structure is not yet shared).
			for k := 0; k < keys; k += 2 {
				n, err := s.Alloc(htNodeWords)
				if err != nil {
					return nil, err
				}
				s.DirectStore(n+htKey, stm.Word(k))
				h.insertDirect(s, n, stm.Word(k))
			}
			return h, nil
		},
	}
}

func (h *hashtable) bucketOf(k stm.Word) stm.Addr {
	return h.buckets + stm.Addr(int(k)%h.nbkt)
}

func (h *hashtable) insertDirect(s *stm.STM, n stm.Addr, k stm.Word) {
	head := h.bucketOf(k)
	prev, cur := head, stm.Addr(s.DirectLoad(head))
	for cur != stm.Nil && s.DirectLoad(cur+htKey) < k {
		prev, cur = cur+htNext, stm.Addr(s.DirectLoad(cur+htNext))
	}
	s.DirectStore(n+htNext, stm.Word(cur))
	s.DirectStore(prev, stm.Word(n))
}

// Op performs one insert, delete or lookup of a uniformly random key.
func (h *hashtable) Op(ctx *OpCtx, mix Mix) {
	k := stm.Word(ctx.Key(h.keys))
	p := ctx.RNG.Pct()
	head := h.bucketOf(k)
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

// Check verifies every bucket is sorted, duplicate-free, hashes correctly,
// and has no cycle.
func (h *hashtable) Check(s *stm.STM) error {
	for b := 0; b < h.nbkt; b++ {
		var last stm.Word
		first := true
		steps := 0
		for cur := stm.Addr(s.DirectLoad(h.buckets + stm.Addr(b))); cur != stm.Nil; cur = stm.Addr(s.DirectLoad(cur + htNext)) {
			k := s.DirectLoad(cur + htKey)
			if int(k)%h.nbkt != b {
				return fmt.Errorf("bucket %d holds key %d", b, k)
			}
			if !first && k <= last {
				return fmt.Errorf("bucket %d unsorted: %d after %d", b, k, last)
			}
			last, first = k, false
			if steps++; steps > h.keys+1 {
				return fmt.Errorf("bucket %d has a cycle", b)
			}
		}
	}
	return nil
}

// Size counts the elements.
func (h *hashtable) Size(s *stm.STM) int {
	n := 0
	for b := 0; b < h.nbkt; b++ {
		for cur := stm.Addr(s.DirectLoad(h.buckets + stm.Addr(b))); cur != stm.Nil; cur = stm.Addr(s.DirectLoad(cur + htNext)) {
			n++
		}
	}
	return n
}

// Dump returns the key set in ascending order.
func (h *hashtable) Dump(s *stm.STM) []uint64 {
	var out []uint64
	for b := 0; b < h.nbkt; b++ {
		for cur := stm.Addr(s.DirectLoad(h.buckets + stm.Addr(b))); cur != stm.Nil; cur = stm.Addr(s.DirectLoad(cur + htNext)) {
			out = append(out, uint64(s.DirectLoad(cur+htKey)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
