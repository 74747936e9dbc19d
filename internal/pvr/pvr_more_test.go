package pvr

import (
	"sync"
	"testing"
	"time"

	"privstm/internal/core"
	"privstm/internal/failpoint"
	"privstm/internal/heap"
)

// TestWriterOnlyInvisibleDoomedRetries: a read-only-so-far transaction
// whose read set is invalidated by a writer commit must abort at its next
// read's poll and succeed on retry.
func TestWriterOnlyInvisibleDoomedRetries(t *testing.T) {
	rt := newRT(t)
	e := NewWriterOnly(rt)
	r := thread(t, rt)
	w := thread(t, rt)
	x := rt.Heap.MustAlloc(1)
	y := rt.Heap.MustAlloc(600)
	if rt.Orecs.For(x) == rt.Orecs.For(y+512) {
		t.Skip("orec collision")
	}
	attempts := 0
	if err := core.Run(e, r, func() {
		attempts++
		_ = e.Read(r, x)
		if attempts == 1 {
			if err := core.Run(e, w, func() { e.Write(w, x, 5) }); err != nil {
				t.Fatal(err)
			}
		}
		_ = e.Read(r, y+512)
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	if r.Stats.ReadOnlyCommits != 1 {
		t.Errorf("ReadOnlyCommits = %d", r.Stats.ReadOnlyCommits)
	}
}

// TestWriterOnlyInvisibleCancel: cancelling before the first write must
// not touch the tracker (the transaction never joined it).
func TestWriterOnlyInvisibleCancel(t *testing.T) {
	rt := newRT(t)
	e := NewWriterOnly(rt)
	th := thread(t, rt)
	a := rt.Heap.MustAlloc(1)
	err := core.Run(e, th, func() {
		_ = e.Read(th, a)
		th.UserCancel(errSentinel)
	})
	if err != errSentinel {
		t.Fatal(err)
	}
	if rt.Active.Count() != 0 {
		t.Error("tracker not empty after invisible cancel")
	}
}

// TestGoVisibleAbortsWhenDoomed: the §III-C transition itself must abort a
// transaction whose reads were invalidated before its first write — the
// bug the privatization stressor originally caught.
func TestGoVisibleAbortsWhenDoomed(t *testing.T) {
	rt := newRT(t)
	e := NewWriterOnly(rt)
	r := thread(t, rt)
	w := thread(t, rt)
	x := rt.Heap.MustAlloc(1)
	target := rt.Heap.MustAlloc(600)
	if rt.Orecs.For(x) == rt.Orecs.For(target+512) {
		t.Skip("orec collision")
	}
	attempts := 0
	if err := core.Run(e, r, func() {
		attempts++
		_ = e.Read(r, x)
		if attempts == 1 {
			// Invalidate the read, then let the victim attempt its first
			// write: goVisible's revalidation must refuse.
			if err := core.Run(e, w, func() { e.Write(w, x, 1) }); err != nil {
				t.Fatal(err)
			}
			// Suppress the poll path by writing without reading again.
		}
		e.Write(r, target+512, 9)
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2 (goVisible must doom attempt 1)", attempts)
	}
	if got := rt.Heap.AtomicLoad(target + 512); got != 9 {
		t.Errorf("retry did not commit: %d", got)
	}
}

// TestUndoEngineCommitValidationFails: a writer whose read set goes stale
// after its in-place writes must roll back at commit and retry.
func TestUndoEngineCommitValidationFails(t *testing.T) {
	rt := newRT(t)
	e := NewBase(rt)
	r := thread(t, rt)
	w := thread(t, rt)
	x := rt.Heap.MustAlloc(1)
	y := rt.Heap.MustAlloc(600)
	if rt.Orecs.For(x) == rt.Orecs.For(y+512) {
		t.Skip("orec collision")
	}
	// The conflicting writer must run concurrently: it will fence on the
	// reader's visibility hint for x, and the reader's commit-time
	// validation failure (abort, tracker exit) is what releases it.
	attempts := 0
	var once sync.Once
	var wg sync.WaitGroup
	if err := core.Run(e, r, func() {
		attempts++
		v := e.Read(r, x)
		e.Write(r, y+512, v+100)
		if attempts == 1 {
			once.Do(func() {
				before := rt.Clock.Now()
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = core.Run(e, w, func() { e.Write(w, x, 7) })
				}()
				// Wait until the writer has committed (clock ticked); it
				// is now waiting at its privatization fence for us.
				for rt.Clock.Now() == before {
				}
			})
		}
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	if got := rt.Heap.AtomicLoad(y + 512); got != 107 {
		t.Errorf("y = %d, want 107 (committed from refreshed read)", got)
	}
	if r.Stats.Aborts != 1 {
		t.Errorf("Aborts = %d", r.Stats.Aborts)
	}
}

// TestCapFenceWaitsOnlyForOlderReaders: with CapFenceAtCommit a fencing
// writer waits for the transactions that began before its commit's tick
// and for nothing else — it returns as soon as the one older reader ends,
// with no further commit, even while a reader that began at the commit
// time itself is still running. (Capped at wts instead of wts−1, the fence
// needed oldest-begin > wts: it sat there until that younger reader ended
// or some other thread ticked the clock.)
func TestCapFenceWaitsOnlyForOlderReaders(t *testing.T) {
	for _, mk := range []func(*core.Runtime) *Engine{NewCAS, NewStore} {
		rt, err := core.NewRuntime(core.Options{
			HeapWords: 1 << 12, OrecCount: 1 << 8, MaxThreads: 8, CapFenceAtCommit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := mk(rt)
		older, younger, writer := thread(t, rt), thread(t, rt), thread(t, rt)
		a := rt.Heap.MustAlloc(1)
		b := rt.Heap.MustAlloc(1)
		// A grace period in place: the older reader's hint, and with it the
		// uncapped threshold, lands far beyond the writer's commit time.
		rt.Orecs.For(a).Grace().Store(64)

		var wg sync.WaitGroup
		park := func(th *core.Thread, addr heap.Addr) (in, release chan struct{}) {
			in, release = make(chan struct{}), make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = core.Run(e, th, func() {
					_ = e.Read(th, addr)
					close(in)
					<-release
				})
			}()
			<-in
			return in, release
		}
		_, olderGo := park(older, a)

		fencing := make(chan struct{})
		var once sync.Once
		failpoint.Set(failpoint.FencePrivWait, func(string) { once.Do(func() { close(fencing) }) })
		committed := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = core.Run(e, writer, func() { e.Write(writer, a, 42) })
			close(committed)
		}()
		<-fencing // the writer has ticked, released, and is waiting for `older`
		failpoint.Reset()

		_, youngerGo := park(younger, b)
		if younger.BeginTS != writer.LastCommitTS {
			t.Fatalf("%s: younger reader began at %d, want the writer's commit time %d", e.Name(), younger.BeginTS, writer.LastCommitTS)
		}
		select {
		case <-committed:
			t.Fatalf("%s: writer returned while the older reader was still live", e.Name())
		case <-time.After(20 * time.Millisecond):
		}
		close(olderGo)
		select {
		case <-committed:
		case <-time.After(5 * time.Second):
			t.Errorf("%s: capped fence still waiting after the only older reader ended (clock %d, commit %d)",
				e.Name(), rt.Clock.Now(), writer.LastCommitTS)
		}
		close(youngerGo)
		<-committed
		wg.Wait()
		if writer.Stats.Fenced != 1 {
			t.Errorf("%s: Fenced = %d, want 1", e.Name(), writer.Stats.Fenced)
		}
	}
}
