package main

import (
	"os"
	"path/filepath"
	"time"
)

// spanName identifies what a span timed. Spans are recorded from the
// benchmark's own files, around the calls into the system.
type spanName uint8

const (
	spanRead spanName = iota // one read-class operation
	spanWrite
	spanPriv
	spanSnapshot // inside a priv op: privatizing commit + quiesce
	spanWalk     // inside a priv op: uninstrumented walk of the private chain
	spanRetire   // inside a priv op: handing the chain to the reclaimer
	numSpanNames
)

var spanNames = [numSpanNames]string{"op.read", "op.write", "op.priv", "priv.snapshot", "priv.walk", "priv.retire"}

// span is one timed interval. Parent is the index of the span that caused
// it (-1 for a root); a root's index identifies the operation, and every
// span reachable from it through Parent belongs to that operation.
type span struct {
	Name   spanName
	Parent int32
	Start  int64 // ns since the recorder's epoch
	End    int64
}

// spans is one goroutine's in-memory span buffer. It never grows: when it
// is full further spans are counted as dropped, so recording costs the
// same from the first operation to the last.
type spans struct {
	epoch   time.Time
	buf     []span
	open    int32 // innermost span still open, -1 if none
	dropped int
}

func newSpans(epoch time.Time, capacity int) *spans {
	return &spans{epoch: epoch, buf: make([]span, 0, capacity), open: -1}
}

// beginAt opens a span that started at t under the innermost open span.
func (s *spans) beginAt(name spanName, t time.Time) int32 {
	if len(s.buf) == cap(s.buf) {
		s.dropped++
		return -1
	}
	id := int32(len(s.buf))
	s.buf = append(s.buf, span{Name: name, Parent: s.open, Start: int64(t.Sub(s.epoch))})
	s.open = id
	return id
}

// begin opens a span now. A nil recorder records nothing and costs no
// clock read, so untraced operations share the traced ones' code.
func (s *spans) begin(name spanName) int32 {
	if s == nil {
		return -1
	}
	return s.beginAt(name, time.Now())
}

// endAt closes span id at t. Spans close innermost first.
func (s *spans) endAt(id int32, t time.Time) {
	if id < 0 {
		return
	}
	s.buf[id].End = int64(t.Sub(s.epoch))
	s.open = s.buf[id].Parent
}

func (s *spans) end(id int32) {
	if id >= 0 {
		s.endAt(id, time.Now())
	}
}

// spanTotals aggregates one span name.
type spanTotals struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	// SelfNs is the total minus the part of each interval its child spans
	// cover: the time spent in the benchmark's own call, not in a layer
	// below that has a span of its own.
	SelfNs int64 `json:"self_ns"`
}

// selfTimes returns each span's duration minus the union of its children's
// intervals, clipped to the span. Children of one parent are recorded in
// start order (one goroutine, one buffer), which the union relies on.
func selfTimes(buf []span) []int64 {
	self := make([]int64, len(buf))
	covered := make([]int64, len(buf)) // end of the union of children seen so far
	for i, sp := range buf {
		self[i] = sp.End - sp.Start
		covered[i] = sp.Start
	}
	for _, sp := range buf {
		p := sp.Parent
		if p < 0 {
			continue
		}
		from := max(sp.Start, covered[p])
		to := min(sp.End, buf[p].End)
		if to > from {
			self[p] -= to - from
			covered[p] = to
		}
	}
	return self
}

func aggregateSpans(bufs ...[]span) map[string]spanTotals {
	var agg [numSpanNames]spanTotals
	for _, buf := range bufs {
		self := selfTimes(buf)
		for i, sp := range buf {
			a := &agg[sp.Name]
			a.Count++
			a.TotalNs += sp.End - sp.Start
			a.SelfNs += self[i]
		}
	}
	out := make(map[string]spanTotals)
	for n, a := range agg {
		if a.Count > 0 {
			out[spanNames[n]] = a
		}
	}
	return out
}

// spanFileCap bounds the raw spans written per worker: enough to look at,
// not the tens of megabytes a full run records.
const spanFileCap = 20_000

// writeSpans writes the head of each worker's span buffer to
// dir/<workload>.spans.json. The aggregates in the report cover all of
// them.
func writeSpans(dir, workload string, bufs [][]span) error {
	type namedSpan struct {
		Name   string `json:"name"`
		Parent int32  `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	out := make([][]namedSpan, len(bufs))
	for w, buf := range bufs {
		for _, sp := range buf[:min(len(buf), spanFileCap)] {
			out[w] = append(out[w], namedSpan{spanNames[sp.Name], sp.Parent, sp.Start, sp.End})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, workload+".spans.json"), out)
}
