package bench

import (
	"fmt"

	stm "privstm"
	"privstm/internal/rng"
)

// The binary-search-tree microbenchmark of §V: an internal (non-balanced)
// BST over a key space of up to a million keys — "moderately large
// transactions". Nodes are [key, left, right]; deletion uses the classic
// successor-key replacement, all through transactional loads and stores.
const (
	bstKey   = 0
	bstLeft  = 1
	bstRight = 2

	bstNodeWords = 3
)

type bst struct {
	root stm.Addr // one word holding the root node address
	keys int
}

// BST returns the spec for the BST benchmark. The paper's key space is
// one million keys; the tree is pre-populated to half of it with keys
// inserted in random order (expected depth O(log n)).
func BST(keys int) Spec {
	if keys <= 0 {
		keys = 1 << 20
	}
	return Spec{
		Name:      fmt.Sprintf("bst %dk", keys),
		HeapWords: 1<<16 + 8*keys,
		OrecCount: 1 << 16,
		Build: func(s *stm.STM, r *rng.RNG) (Instance, error) {
			root, err := s.Alloc(1)
			if err != nil {
				return nil, err
			}
			t := &bst{root: root, keys: keys}
			// Insert a random half of the key space directly.
			if qerr := s.Quiescent(func(h stm.Private) {
				for i := 0; i < keys/2 && err == nil; i++ {
					err = t.insertDirect(s, h, stm.Word(r.Intn(keys)))
				}
			}); qerr != nil {
				return nil, qerr
			}
			if err != nil {
				return nil, err
			}
			return t, nil
		},
	}
}

// insertDirect inserts k through h, a whole-heap handle from Quiescent.
func (t *bst) insertDirect(s *stm.STM, h stm.Private, k stm.Word) error {
	link := t.root
	for {
		cur := stm.Addr(h.Load(link))
		if cur == stm.Nil {
			n, err := s.Alloc(bstNodeWords)
			if err != nil {
				return err
			}
			h.Store(n+bstKey, k)
			h.Store(link, stm.Word(n))
			return nil
		}
		ck := h.Load(cur + bstKey)
		switch {
		case k == ck:
			return nil
		case k < ck:
			link = cur + bstLeft
		default:
			link = cur + bstRight
		}
	}
}

// Op performs one insert, delete or lookup of a uniformly random key.
func (t *bst) Op(ctx *OpCtx, mix Mix) {
	k := stm.Word(ctx.Key(t.keys))
	p := ctx.RNG.Pct()
	switch {
	case p < mix.InsertPct:
		n := ctx.AllocNode(bstNodeWords)
		var inserted bool
		_ = ctx.Th.Atomic(func(tx *stm.Tx) {
			inserted = false
			link := t.root
			for {
				cur := tx.LoadAddr(link)
				if cur == stm.Nil {
					tx.Store(n+bstKey, k)
					tx.StoreAddr(n+bstLeft, stm.Nil)
					tx.StoreAddr(n+bstRight, stm.Nil)
					tx.StoreAddr(link, n)
					inserted = true
					return
				}
				ck := tx.Load(cur + bstKey)
				switch {
				case k == ck:
					return
				case k < ck:
					link = cur + bstLeft
				default:
					link = cur + bstRight
				}
			}
		})
		if !inserted {
			ctx.FreeNode(n, bstNodeWords)
		}
	case p < mix.InsertPct+mix.DeletePct:
		removed := stm.Nil
		_ = ctx.Th.Atomic(func(tx *stm.Tx) {
			removed = stm.Nil
			link := t.root
			var cur stm.Addr
			for {
				cur = tx.LoadAddr(link)
				if cur == stm.Nil {
					return // absent
				}
				ck := tx.Load(cur + bstKey)
				if k == ck {
					break
				}
				if k < ck {
					link = cur + bstLeft
				} else {
					link = cur + bstRight
				}
			}
			left := tx.LoadAddr(cur + bstLeft)
			right := tx.LoadAddr(cur + bstRight)
			if left == stm.Nil || right == stm.Nil {
				// ≤1 child: splice it into the parent link.
				child := left
				if child == stm.Nil {
					child = right
				}
				tx.StoreAddr(link, child)
				removed = cur
				return
			}
			// Two children: find the in-order successor (leftmost node of
			// the right subtree), move its key up, and unlink it.
			slink := cur + bstRight
			succ := tx.LoadAddr(slink)
			for {
				l := tx.LoadAddr(succ + bstLeft)
				if l == stm.Nil {
					break
				}
				slink, succ = succ+bstLeft, l
			}
			tx.Store(cur+bstKey, tx.Load(succ+bstKey))
			tx.StoreAddr(slink, tx.LoadAddr(succ+bstRight))
			removed = succ
		})
		if removed != stm.Nil {
			ctx.FreeNode(removed, bstNodeWords)
		}
	default:
		var found bool
		_ = ctx.Th.Atomic(func(tx *stm.Tx) {
			found = false
			cur := tx.LoadAddr(t.root)
			for cur != stm.Nil {
				ck := tx.Load(cur + bstKey)
				if ck == k {
					found = true
					return
				}
				if k < ck {
					cur = tx.LoadAddr(cur + bstLeft)
				} else {
					cur = tx.LoadAddr(cur + bstRight)
				}
			}
		})
		_ = found
	}
}

// Check verifies the BST property, key bounds, and acyclicity.
func (t *bst) Check(s *stm.STM) error {
	count := 0
	var walk func(n stm.Private, lo, hi int64) error
	walk = func(n stm.Private, lo, hi int64) error {
		if n.Base() == stm.Nil {
			return nil
		}
		if count++; count > t.keys+1 {
			return fmt.Errorf("bst has more nodes than keys (cycle?)")
		}
		k := int64(n.Load(bstKey))
		if k <= lo || k >= hi {
			return fmt.Errorf("bst property violated: key %d outside (%d,%d)", k, lo, hi)
		}
		if err := walk(n.Follow(bstLeft, bstNodeWords), lo, k); err != nil {
			return err
		}
		return walk(n.Follow(bstRight, bstNodeWords), k, hi)
	}
	var err error
	if qerr := s.Quiescent(func(h stm.Private) {
		err = walk(h.Follow(t.root, bstNodeWords), -1, int64(t.keys))
	}); qerr != nil {
		return qerr
	}
	return err
}

// Size counts the nodes.
func (t *bst) Size(s *stm.STM) int {
	n := 0
	var walk func(a stm.Private)
	walk = func(a stm.Private) {
		if a.Base() == stm.Nil {
			return
		}
		n++
		walk(a.Follow(bstLeft, bstNodeWords))
		walk(a.Follow(bstRight, bstNodeWords))
	}
	quiescent(s, func(h stm.Private) { walk(h.Follow(t.root, bstNodeWords)) })
	return n
}

// Dump returns the key set in ascending order (an in-order walk).
func (t *bst) Dump(s *stm.STM) []uint64 {
	var out []uint64
	var walk func(a stm.Private)
	walk = func(a stm.Private) {
		if a.Base() == stm.Nil {
			return
		}
		walk(a.Follow(bstLeft, bstNodeWords))
		out = append(out, uint64(a.Load(bstKey)))
		walk(a.Follow(bstRight, bstNodeWords))
	}
	quiescent(s, func(h stm.Private) { walk(h.Follow(t.root, bstNodeWords)) })
	return out
}
