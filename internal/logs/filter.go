package logs

// filter is the open-addressed, epoch-stamped index shared by the
// per-transaction containers that look entries up by key (Redo, PubLog).
// It maps a 32-bit key to the index of an entry in the container's backing
// slice; collision resolution is linear probing over a power-of-two table
// kept below 3/4 load.
//
// Each word packs (epoch, entry index + 1); a word whose epoch is not the
// container's current epoch reads as empty. Reset then just bumps the
// epoch — O(1) — instead of memsetting the whole table, so one large
// transaction does not tax every later small transaction on the thread
// with an O(max-historical-capacity) clear per begin. One physical clear
// runs per 2^32 resets, when the epoch wraps (see reset).
type filter struct {
	words []uint64
	mask  uint32
	epoch uint32
}

// needGrow reports whether a table holding n entries must grow before the
// next insertion (no storage yet, or at the 3/4 load bound).
func (f *filter) needGrow(n int) bool {
	return f.words == nil || n*4 >= len(f.words)*3
}

// start returns the first probe slot for key (32-bit Fibonacci scatter).
func (f *filter) start(key uint32) uint32 { return key * 2654435769 & f.mask }

// next advances a probe chain by one slot.
func (f *filter) next(s uint32) uint32 { return (s + 1) & f.mask }

// at returns the entry index stored at slot s, or -1 if the slot is empty
// in the current epoch.
func (f *filter) at(s uint32) int {
	v := f.words[s]
	if uint32(v>>32) != f.epoch || uint32(v) == 0 {
		return -1
	}
	return int(uint32(v)) - 1
}

// put stores entry index i at slot s.
func (f *filter) put(s uint32, i int) {
	f.words[s] = uint64(f.epoch)<<32 | uint64(i+1)
}

// grow allocates a doubled table (initial slots on first use) and
// reinserts entries 0..count-1 using keyAt. Amortized by the container's
// append growth; never on the steady-state path.
func (f *filter) grow(initial, count int, keyAt func(int) uint32) {
	n := initial
	if f.words != nil {
		n = len(f.words) * 2
	}
	f.words = make([]uint64, n)
	f.mask = uint32(n - 1)
	for i := 0; i < count; i++ {
		s := f.start(keyAt(i))
		for f.at(s) >= 0 {
			s = f.next(s)
		}
		f.put(s, i)
	}
}

// reset invalidates every slot in O(1) by bumping the epoch. The table is
// physically cleared only when the 32-bit epoch wraps, so a stale word
// from 2^32 resets ago can never alias a current one.
func (f *filter) reset() {
	if f.epoch++; f.epoch == 0 {
		clear(f.words)
		f.epoch = 1
	}
}
