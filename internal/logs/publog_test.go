package logs

import "testing"

func TestPubLogAddContains(t *testing.T) {
	var p PubLog
	os := testOrecs(4)
	if p.Contains(os[0], 5) {
		t.Fatal("empty log claims a publication")
	}
	p.Add(os[0], 5)
	p.Add(os[1], 7)
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	if !p.Contains(os[0], 5) || !p.Contains(os[1], 7) {
		t.Error("Contains missed a published (orec, rts) pair")
	}
	// The self-hint test is exact: a different rts on the same orec is a
	// *stale* hint and must not match.
	if p.Contains(os[0], 6) {
		t.Error("Contains matched a different rts on the same orec")
	}
	if p.Contains(os[2], 5) {
		t.Error("Contains matched an orec never published on")
	}
}

func TestPubLogOverwriteInPlace(t *testing.T) {
	var p PubLog
	os := testOrecs(2)
	p.Add(os[0], 5)
	p.Add(os[0], 9) // re-publication: only the newest hint can be live
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (overwrite in place)", p.Len())
	}
	if p.Contains(os[0], 5) {
		t.Error("stale rts still matches after overwrite")
	}
	if !p.Contains(os[0], 9) {
		t.Error("latest rts does not match")
	}
}

func TestPubLogEpochReset(t *testing.T) {
	var p PubLog
	orecs := testOrecs(200) // force several grows
	for i, o := range orecs {
		p.Add(o, uint64(i+1))
	}
	for txn := 0; txn < 3; txn++ {
		p.Reset()
		if p.Len() != 0 {
			t.Fatalf("txn %d: Reset left %d entries", txn, p.Len())
		}
		if p.Contains(orecs[7], 8) {
			t.Fatalf("txn %d: stale filter word satisfied Contains", txn)
		}
		p.Add(orecs[7], 42)
		if !p.Contains(orecs[7], 42) || p.Len() != 1 {
			t.Fatalf("txn %d: post-reset Add broken (len %d)", txn, p.Len())
		}
	}
}

// TestPubLogAllocFree pins the publication log at zero steady-state
// allocations: MakeVisible's publish path runs on every first read of a
// block, so a per-publication allocation would tax the whole read path.
func TestPubLogAllocFree(t *testing.T) {
	var p PubLog
	orecs := testOrecs(128)
	fill := func() {
		for i, o := range orecs {
			p.Add(o, uint64(i+1))
			if !p.Contains(o, uint64(i+1)) {
				t.Fatal("Contains lost a publication")
			}
		}
	}
	fill() // warm up: grow to final size
	if n := testing.AllocsPerRun(100, func() {
		p.Reset()
		fill()
	}); n != 0 {
		t.Errorf("steady-state PubLog.Add allocates %.1f per transaction", n)
	}
}
