package priv

import (
	"testing"

	stm "privstm"
)

// TestPublicationByStore verifies the idiom the paper's footnote promises:
// a reader that observes the published pointer observes the private
// initialization too, for every privatization-safe algorithm. The
// *un*-publish half of each cycle is itself a privatization, so this also
// stresses fences from a second angle.
func TestPublicationByStore(t *testing.T) {
	safe := []stm.Algorithm{stm.Ord, stm.Val, stm.PVRBase, stm.PVRCAS, stm.PVRStore, stm.PVRWriterOnly, stm.PVRHybrid}
	for _, alg := range safe {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := RunPublication(PubConfig{
				Algorithm:  alg,
				Publishers: 2,
				Readers:    2,
				Iterations: 300,
				AtomicPrivate: alg == stm.Ord ||
					alg == stm.PVRWriterOnly || alg == stm.PVRHybrid,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v: published=%d observations=%d torn=%d",
				alg, res.Published.Load(), res.Observations.Load(), res.Torn.Load())
			if n := res.Torn.Load(); n != 0 {
				t.Errorf("%v: %d torn publications observed", alg, n)
			}
			if n := res.Published.Load(); n != 600 {
				t.Errorf("published = %d, want 600", n)
			}
		})
	}
}
