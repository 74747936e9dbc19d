package stm

import "testing"

// TestExtentsOwnTheirBlocks: the heap allocates in whole conflict-detection
// blocks, so whatever the allocation path — STM.Alloc, STM.MustAlloc,
// Thread.MustAlloc from the bump pointer, Thread.MustAlloc recycling a
// retired extent, the heap free list after a drain — an extent starts on a
// block boundary, no two live extents share a block (or, in a table this
// much larger than the live set, an orec), and the words of one block share
// theirs. Run at the paper-ablation granularity (1), the default (2) and a
// larger one (4).
func TestExtentsOwnTheirBlocks(t *testing.T) {
	// The table and the heap round an odd BlockWords the same way.
	for bw, want := range map[int]int{0: 2, 3: 4, 5: 8, 8: 8} {
		s := MustNew(Config{BlockWords: bw, HeapWords: 1 << 8, OrecCount: 1 << 4})
		if q, b := s.rt.Heap.Quantum(), s.rt.Orecs.BlockWords(); q != want || b != want {
			t.Errorf("BlockWords %d: heap quantum %d, table block %d, want %d", bw, q, b, want)
		}
	}
	for _, bw := range []int{1, 2, 4} {
		s := MustNew(Config{Algorithm: PVRStore, BlockWords: bw, HeapWords: 1 << 12, OrecCount: 1 << 16, MaxThreads: 2})
		th := s.MustNewThread()
		if got := s.rt.Orecs.BlockWords(); got != bw {
			t.Fatalf("BlockWords %d: table granularity %d", bw, got)
		}
		if got := s.rt.Heap.Quantum(); got != bw {
			t.Fatalf("BlockWords %d: heap quantum %d", bw, got)
		}
		type extent struct {
			a Addr
			n int
		}
		var live []extent
		sizes := []int{1, 2, 3, 4, 5, 2, 1, 3}
		for i, n := range sizes {
			a, err := s.Alloc(n)
			if err != nil {
				t.Fatal(err)
			}
			m := sizes[(i+3)%len(sizes)]
			live = append(live, extent{a, n}, extent{s.MustAlloc(m), m}, extent{th.MustAlloc(n), n})
		}
		// Recycle through the reclaimer's thread-local front: retire a
		// batch of 3-word nodes (enough to publish it), then allocate the
		// same shape until one of the retired addresses comes back.
		retired := map[Addr]bool{}
		for i := 0; i < 64; i++ {
			a := th.MustAlloc(3)
			retired[a] = true
			th.Retire(a, 3)
		}
		reused := 0
		for i := 0; i < 64; i++ {
			a := th.MustAlloc(3)
			if retired[a] {
				reused++
			}
			live = append(live, extent{a, 3})
		}
		if reused == 0 {
			t.Errorf("BlockWords %d: no retired extent was recycled", bw)
		}
		// And through the heap's own free list: drain the rest back, then
		// plain MustAlloc of a different size with the same rounded size.
		th.FlushReclaim()
		s.DrainReclaim()
		if s.HeapStats().FreeWords > 0 && bw == 2 {
			before := s.HeapStats().ReusedWords
			live = append(live, extent{s.MustAlloc(4), 4}) // a retired 3-word node is a 4-word extent
			if s.HeapStats().ReusedWords == before {
				t.Errorf("BlockWords 2: Alloc(4) did not take a freed 3-word extent")
			}
		}

		blockOwner := map[Addr]int{}
		orecOwner := map[int]int{}
		for i, e := range live {
			if int(e.a)%bw != 0 {
				t.Errorf("BlockWords %d: extent %d (%d words) at %d is not block-aligned", bw, i, e.n, e.a)
			}
			for w := e.a; w < e.a+Addr(e.n); w++ {
				blk := w / Addr(bw)
				if prev, taken := blockOwner[blk]; taken && prev != i {
					t.Errorf("BlockWords %d: extents %d and %d share block %d", bw, prev, i, blk)
				}
				blockOwner[blk] = i
				if s.rt.Orecs.Index(w) != s.rt.Orecs.Index(blk*Addr(bw)) {
					t.Errorf("BlockWords %d: word %d and its block's first word %d map to different orecs", bw, w, blk*Addr(bw))
				}
			}
			idx := s.rt.Orecs.Index(e.a)
			if prev, taken := orecOwner[idx]; taken {
				t.Errorf("BlockWords %d: first words of extents %d and %d share orec %d", bw, prev, i, idx)
			}
			orecOwner[idx] = i
		}
	}
}
