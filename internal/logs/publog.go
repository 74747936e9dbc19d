package logs

import "privstm/internal/orec"

// PubEntry records one visibility hint published by the current
// transaction: the orec and the read timestamp written into its vis word.
type PubEntry struct {
	Orec *orec.Orec
	RTS  uint64
}

// PubLog is the per-transaction visibility publication log: the writer-side
// self-test (core.Thread.publishedHere) may treat a hint as "my own read,
// no fence needed" only if the hint's exact (orec, rts) pair appears here.
//
// It replaces a lazily allocated Go map: entries and the epoch-stamped
// filter (filter.go) are retained across transactions, so steady-state
// publication and lookup are alloc-free and Reset is O(1). The filter is
// keyed by the record's address (orec.Orec.Index) and entries match by
// *Orec identity; re-publishing on the same orec overwrites the RTS in
// place (only the latest hint can still be in the vis word).
type PubLog struct {
	entries []PubEntry
	f       filter
}

func (p *PubLog) keyAt(i int) uint32 { return p.entries[i].Orec.Index() }

// Add records that this transaction published a hint with read timestamp
// rts on o.
func (p *PubLog) Add(o *orec.Orec, rts uint64) {
	if p.f.needGrow(len(p.entries)) {
		p.f.grow(32, len(p.entries), p.keyAt)
	}
	s := p.f.start(o.Index())
	for {
		i := p.f.at(s)
		if i < 0 {
			p.f.put(s, len(p.entries))
			p.entries = append(p.entries, PubEntry{Orec: o, RTS: rts})
			return
		}
		if e := &p.entries[i]; e.Orec == o {
			e.RTS = rts
			return
		}
		s = p.f.next(s)
	}
}

// Contains reports whether this transaction published exactly (o, rts).
func (p *PubLog) Contains(o *orec.Orec, rts uint64) bool {
	if len(p.entries) == 0 {
		return false
	}
	s := p.f.start(o.Index())
	for {
		i := p.f.at(s)
		if i < 0 {
			return false
		}
		if e := &p.entries[i]; e.Orec == o {
			return e.RTS == rts
		}
		s = p.f.next(s)
	}
}

// Len returns the number of orecs published on this transaction.
func (p *PubLog) Len() int { return len(p.entries) }

// At returns the i-th entry.
func (p *PubLog) At(i int) *PubEntry { return &p.entries[i] }

// Reset empties the log, retaining capacity; O(1) via the filter's epoch
// bump.
func (p *PubLog) Reset() {
	p.entries = p.entries[:0]
	p.f.reset()
}
