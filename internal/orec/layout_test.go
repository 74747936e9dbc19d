package orec

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"privstm/internal/heap"
)

// TestRecordWordsDistinct drives the record API through a whole table:
// At/Slot identity, store/load round trips through every metadata word
// (the two record words and the grace column), and no word of one record
// aliasing a word of another.
func TestRecordWordsDistinct(t *testing.T) {
	tab := NewTable(64, 1)
	for i := 0; i < tab.Len(); i++ {
		o := tab.At(i)
		if tab.Slot(o) != i {
			t.Fatalf("Slot(At(%d)) = %d", i, tab.Slot(o))
		}
		o.Owner().Store(uint64(i) + 1)
		o.Vis().Store(uint64(i) + 2)
		tab.Grace(o).Store(uint64(i) + 3)
	}
	for i := 0; i < tab.Len(); i++ {
		o := tab.At(i)
		if o.Owner().Load() != uint64(i)+1 || o.Vis().Load() != uint64(i)+2 ||
			tab.Grace(o).Load() != uint64(i)+3 {
			t.Fatalf("record %d words aliased: owner=%d vis=%d grace=%d",
				i, o.Owner().Load(), o.Vis().Load(), tab.Grace(o).Load())
		}
	}
	// For and At agree on record identity (pointer equality is what the
	// read log and the acquired log rely on).
	for a := heap.Addr(0); a < 256; a++ {
		if tab.For(a) != tab.At(tab.Index(a)) {
			t.Fatalf("For/At disagree at addr %d", a)
		}
	}
}

// TestLayoutPadding checks the dense layout's contract: 16-byte records,
// four to a line, whose owner, vis and grace words never alias; an Index
// key distinct for every record of a default-sized table; and Slot
// inverting the table's address-to-slot hash.
func TestLayoutPadding(t *testing.T) {
	if s := unsafe.Sizeof(Orec{}); s != 16 {
		t.Errorf("Orec size = %d, want 16", s)
	}
	tab := NewTable(8, 1)
	d := uintptr(unsafe.Pointer(tab.At(1).Owner())) - uintptr(unsafe.Pointer(tab.At(0).Owner()))
	if d != 16 {
		t.Errorf("record stride = %d bytes, want 16", d)
	}

	// Four records that share one 64-byte line: every owner, vis and grace
	// word of theirs is a distinct 8-byte word.
	first := 0
	for uintptr(unsafe.Pointer(tab.At(first)))%64 != 0 {
		first++
	}
	if first+4 > tab.Len() {
		t.Fatalf("no 64-byte-aligned run of four records in an %d-record table", tab.Len())
	}
	words := map[uintptr]string{}
	claim := func(w *atomic.Uint64, name string, i int) {
		p := uintptr(unsafe.Pointer(w))
		if prev, dup := words[p]; dup {
			t.Errorf("record %d's %s word aliases %s", i, name, prev)
		}
		words[p] = name
	}
	for i := first; i < first+4; i++ {
		o := tab.At(i)
		if line := uintptr(unsafe.Pointer(o)) / 64; line != uintptr(unsafe.Pointer(tab.At(first)))/64 {
			t.Errorf("record %d is not on record %d's line", i, first)
		}
		claim(o.Owner(), "owner", i)
		claim(o.Vis(), "vis", i)
		claim(tab.Grace(o), "grace", i)
	}

	// Index is a key distinct across a whole default-sized table.
	big := NewTable(1<<16, 2)
	seen := make(map[uint32]int, big.Len())
	for i := 0; i < big.Len(); i++ {
		k := big.At(i).Index()
		if j, dup := seen[k]; dup {
			t.Fatalf("records %d and %d share Index %d", j, i, k)
		}
		seen[k] = i
	}

	// Slot inverts For: the slot of the record guarding a is Index(a).
	for a := heap.Addr(0); a < 1<<14; a += 3 {
		if s, want := big.Slot(big.For(a)), big.Index(a); s != want {
			t.Fatalf("Slot(For(%d)) = %d, want Index = %d", a, s, want)
		}
	}
}
