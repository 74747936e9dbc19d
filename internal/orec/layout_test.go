package orec

import (
	"testing"
	"unsafe"

	"privstm/internal/heap"
)

// TestRecordWordsDistinct drives the record API through a whole table:
// For/At identity, store/load round trips through every metadata word, and
// no word of one record aliasing a word of another.
func TestRecordWordsDistinct(t *testing.T) {
	tab := NewTable(64, 1)
	for i := 0; i < tab.Len(); i++ {
		o := tab.At(i)
		if o.Index() != uint32(i) {
			t.Fatalf("At(%d).Index() = %d", i, o.Index())
		}
		o.Owner().Store(uint64(i) + 1)
		o.Vis().Store(uint64(i) + 2)
		o.Grace().Store(uint64(i) + 3)
		o.CurrReader().Store(uint64(i) + 4)
	}
	for i := 0; i < tab.Len(); i++ {
		o := tab.At(i)
		if o.Owner().Load() != uint64(i)+1 || o.Vis().Load() != uint64(i)+2 ||
			o.Grace().Load() != uint64(i)+3 || o.CurrReader().Load() != uint64(i)+4 {
			t.Fatalf("record %d words aliased: owner=%d vis=%d grace=%d curr=%d",
				i, o.Owner().Load(), o.Vis().Load(), o.Grace().Load(), o.CurrReader().Load())
		}
	}
	// For and At agree on record identity (pointer equality is what the
	// read-set dedup and the acquired log rely on).
	for a := heap.Addr(0); a < 256; a++ {
		if tab.For(a) != tab.At(tab.Index(a)) {
			t.Fatalf("For/At disagree at addr %d", a)
		}
	}
}

// TestLayoutPadding checks the false-sharing contract: one record per
// 64-byte line, all five fields on it.
func TestLayoutPadding(t *testing.T) {
	if s := unsafe.Sizeof(Orec{}); s != 64 {
		t.Errorf("Orec size = %d, want 64", s)
	}
	tab := NewTable(8, 1)
	d := uintptr(unsafe.Pointer(tab.At(1).Owner())) - uintptr(unsafe.Pointer(tab.At(0).Owner()))
	if d != 64 {
		t.Errorf("record stride = %d bytes, want 64", d)
	}
	for i := 0; i < tab.Len(); i++ {
		o := tab.At(i)
		first := uintptr(unsafe.Pointer(o.Owner()))
		last := uintptr(unsafe.Pointer(&o.idx))
		if last-first >= 64 {
			t.Fatalf("record %d spans %d bytes, want one 64-byte line", i, last-first+4)
		}
	}
}
