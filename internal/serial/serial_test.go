package serial

import (
	"strings"
	"testing"
)

func TestEmptyAndSingle(t *testing.T) {
	if err := Check(&History{}); err != nil {
		t.Errorf("empty history: %v", err)
	}
	h := &History{Txns: []Txn{{
		ID:     1,
		Reads:  []Op{{Addr: 1, Val: 0}},
		Writes: []Op{{Addr: 1, Val: 10}},
	}}}
	if err := Check(h); err != nil {
		t.Errorf("single txn: %v", err)
	}
}

func TestSerializableChain(t *testing.T) {
	// T1: r(a)=0 w(a)=10; T2: r(a)=10 w(a)=20; T3: r(a)=20.
	h := &History{Txns: []Txn{
		{ID: 1, Reads: []Op{{1, 0}}, Writes: []Op{{1, 10}}},
		{ID: 2, Reads: []Op{{1, 10}}, Writes: []Op{{1, 20}}},
		{ID: 3, Reads: []Op{{1, 20}}},
	}}
	if err := Check(h); err != nil {
		t.Errorf("chain: %v", err)
	}
}

func TestLostUpdateRejected(t *testing.T) {
	// Both writers read the initial value and overwrote it: classic lost
	// update, not serializable.
	h := &History{Txns: []Txn{
		{ID: 1, Reads: []Op{{1, 0}}, Writes: []Op{{1, 10}}},
		{ID: 2, Reads: []Op{{1, 0}}, Writes: []Op{{1, 20}}},
	}}
	err := Check(h)
	if err == nil || !strings.Contains(err.Error(), "lost update") {
		t.Errorf("err = %v, want lost update", err)
	}
}

func TestWriteSkewCycleRejected(t *testing.T) {
	// T1: r(a)=0 r(b)=0 w(a)=10 ; T2: r(a)=0 r(b)=0 w(b)=20.
	// T1 read b before T2 wrote it (T1 < T2), and T2 read a before T1
	// wrote it (T2 < T1): a cycle — snapshot-isolation write skew.
	h := &History{Txns: []Txn{
		{ID: 1, Reads: []Op{{1, 0}, {2, 0}}, Writes: []Op{{1, 10}}},
		{ID: 2, Reads: []Op{{1, 0}, {2, 0}}, Writes: []Op{{2, 20}}},
	}}
	err := Check(h)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("err = %v, want cycle", err)
	}
}

func TestDisjointWritersAccepted(t *testing.T) {
	h := &History{Txns: []Txn{
		{ID: 1, Reads: []Op{{1, 0}}, Writes: []Op{{1, 10}}},
		{ID: 2, Reads: []Op{{2, 0}}, Writes: []Op{{2, 20}}},
		{ID: 3, Reads: []Op{{1, 10}, {2, 20}}},
		{ID: 4, Reads: []Op{{1, 0}, {2, 0}}},
	}}
	if err := Check(h); err != nil {
		t.Errorf("disjoint + readers: %v", err)
	}
}

func TestThreeCycleRejected(t *testing.T) {
	// T1 reads b's later version but a's early version etc. — a 3-cycle
	// via anti-dependencies.
	h := &History{Txns: []Txn{
		// version chains: a: 0 -> 11 (by T1) ; b: 0 -> 12 (by T2) ; c: 0 -> 13 (by T3)
		// T1 reads c=13 (so T3 < T1); T2 reads a=0 then is overwritten by T1?? —
		// T2 reads a=0 and T1 wrote a: anti edge T2 -> T1… build: T1 < T2? need:
		// T1 reads b=0 (anti T1 -> T2), T2 reads c=0 (anti T2 -> T3), T3 reads a=11 (wr T1 -> T3)…
		// and T3 < T1 via? use T1 reads c=13: wr T3 -> T1. Cycle: T1 -> T2? no…
		// Simpler: pairwise anti cycle with three txns:
		// T1: r(a)=0 r(b)=0 w(a)=11  — T1 -> writer(b) = T2
		// T2: r(b)=0 r(c)=0 w(b)=12  — T2 -> writer(c) = T3
		// T3: r(c)=0 r(a)=0 w(c)=13  — T3 -> writer(a) = T1  : cycle.
		{ID: 1, Reads: []Op{{1, 0}, {2, 0}}, Writes: []Op{{1, 11}}},
		{ID: 2, Reads: []Op{{2, 0}, {3, 0}}, Writes: []Op{{2, 12}}},
		{ID: 3, Reads: []Op{{3, 0}, {1, 0}}, Writes: []Op{{3, 13}}},
	}}
	// The report names every transaction of the cycle, and each edge's
	// address, the value read, and the value that overwrote it.
	const want = "serial: precedence cycle: txn 1" +
		" -[read 0@2, overwritten with 12 by]-> txn 2" +
		" -[read 0@3, overwritten with 13 by]-> txn 3" +
		" -[read 0@1, overwritten with 11 by]-> txn 1"
	if err := Check(h); err == nil || err.Error() != want {
		t.Errorf("err = %v\nwant %s", err, want)
	}
}

func TestMalformedHistories(t *testing.T) {
	cases := []struct {
		name string
		h    *History
		want string
	}{
		{"dup value", &History{Txns: []Txn{
			{ID: 1, Reads: []Op{{1, 0}}, Writes: []Op{{1, 10}}},
			{ID: 2, Reads: []Op{{2, 0}}, Writes: []Op{{2, 10}}},
		}}, ""}, // same value on different addrs is fine
		{"dup value same addr", &History{Txns: []Txn{
			{ID: 1, Reads: []Op{{1, 0}}, Writes: []Op{{1, 10}}},
			{ID: 2, Reads: []Op{{1, 10}}, Writes: []Op{{1, 10}}},
		}}, "written by txns"},
		{"write without read", &History{Txns: []Txn{
			{ID: 1, Writes: []Op{{1, 10}}},
		}}, "without reading"},
		{"reserved zero", &History{Txns: []Txn{
			{ID: 1, Reads: []Op{{1, 0}}, Writes: []Op{{1, 0}}},
		}}, "reserved value"},
		{"orphan read", &History{Txns: []Txn{
			{ID: 1, Reads: []Op{{1, 99}}},
		}}, "no writer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Check(c.h)
			if c.want == "" {
				if err != nil {
					t.Errorf("err = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestSortByID(t *testing.T) {
	h := &History{Txns: []Txn{{ID: 3}, {ID: 1}, {ID: 2}}}
	h.SortByID()
	for i, want := range []int{1, 2, 3} {
		if h.Txns[i].ID != want {
			t.Errorf("Txns[%d].ID = %d", i, h.Txns[i].ID)
		}
	}
}
