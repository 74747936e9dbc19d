package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentages(t *testing.T) {
	var c Counters
	if c.PercentWritersFenced() != 0 || c.PercentVisibleReadsSkipped() != 0 {
		t.Error("zero counters should yield 0% (no division by zero)")
	}
	c.WriterCommits = 200
	c.Fenced = 50
	if got := c.PercentWritersFenced(); got != 25 {
		t.Errorf("PercentWritersFenced = %v, want 25", got)
	}
	c.PVReads = 1000
	c.PVSkipped = 900
	if got := c.PercentVisibleReadsSkipped(); got != 90 {
		t.Errorf("PercentVisibleReadsSkipped = %v, want 90", got)
	}
	c.Commits = 75
	c.Aborts = 25
	if got := c.AbortRate(); got != 25 {
		t.Errorf("AbortRate = %v, want 25", got)
	}
}

func TestAddAccumulatesEveryField(t *testing.T) {
	// quick cannot synthesize Counters directly (blank padding field), so
	// build them from generated slices.
	mk := func(v [17]uint64) Counters {
		return Counters{
			Commits: v[0], Aborts: v[1], WriterCommits: v[2], ReadOnlyCommits: v[3],
			Fenced: v[4], FenceSpins: v[5], PVReads: v[6], PVUpdates: v[7],
			PVSkipped: v[8], PVMultiSets: v[9], Validations: v[10], Extensions: v[11],
			OrderWaits: v[12], ModeSwitches: v[13],
			Serialized: v[14], FenceStalls: v[15], Ops: v[16],
		}
	}
	prop := func(av, bv [17]uint64) bool {
		a, b := mk(av), mk(bv)
		sum := a
		sum.Add(&b)
		return sum.Commits == a.Commits+b.Commits &&
			sum.Aborts == a.Aborts+b.Aborts &&
			sum.WriterCommits == a.WriterCommits+b.WriterCommits &&
			sum.ReadOnlyCommits == a.ReadOnlyCommits+b.ReadOnlyCommits &&
			sum.Fenced == a.Fenced+b.Fenced &&
			sum.FenceSpins == a.FenceSpins+b.FenceSpins &&
			sum.PVReads == a.PVReads+b.PVReads &&
			sum.PVUpdates == a.PVUpdates+b.PVUpdates &&
			sum.PVSkipped == a.PVSkipped+b.PVSkipped &&
			sum.PVMultiSets == a.PVMultiSets+b.PVMultiSets &&
			sum.Validations == a.Validations+b.Validations &&
			sum.Extensions == a.Extensions+b.Extensions &&
			sum.OrderWaits == a.OrderWaits+b.OrderWaits &&
			sum.ModeSwitches == a.ModeSwitches+b.ModeSwitches &&
			sum.Serialized == a.Serialized+b.Serialized &&
			sum.FenceStalls == a.FenceStalls+b.FenceStalls &&
			sum.Ops == a.Ops+b.Ops
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	c := Counters{Commits: 5, PVReads: 7}
	c.Reset()
	if c != (Counters{}) {
		t.Errorf("Reset left %+v", c)
	}
}

func TestString(t *testing.T) {
	c := Counters{Commits: 10, Aborts: 2, WriterCommits: 4, Fenced: 1}
	s := c.String()
	for _, want := range []string{"commits=10", "aborts=2", "fenced=25.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
