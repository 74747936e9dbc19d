package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privstm/internal/failpoint"
	"privstm/internal/serial"
)

// faults_test.go drives the runtime through injected faults (package
// failpoint) and asserts the liveness layer's response: delayed cleanup is
// detected by the fence watchdog, doomed bodies are sandboxed, and
// MaxAttempts escalation commits through the serialized-irrevocable path
// without breaking serializability. Every test arms global failpoints, so
// none of them may use t.Parallel.

const faultWait = 30 * time.Second

// TestFaultDelayedCleanupDetectedByStallWatchdog injects a forced abort
// into a writer and stalls it mid-undo-rollback — the moment it still holds
// orecs and is still on the central list. A rival writer whose commit must
// fence for the victim's visible read then blocks on a blocker that makes
// no progress, and the privatization-fence watchdog must report the stall.
// After release, the victim's rollback completes, its retry commits, and
// the fenced writer finishes normally: detection never unblocks a fence.
func TestFaultDelayedCleanupDetectedByStallWatchdog(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	stalls := make(chan StallInfo, 16)
	s, err := New(Config{
		Algorithm:      PVRStore,
		HeapWords:      1 << 12,
		OrecCount:      1 << 8,
		StallThreshold: 4,
		OnStall:        func(info StallInfo) { stalls <- info },
	})
	if err != nil {
		t.Fatal(err)
	}
	head := s.MustAlloc(1)
	n1 := s.MustAlloc(1)
	n2 := s.MustAlloc(1)
	s.AtomicStore(n1, 41)
	s.AtomicStore(n2, 42)

	victim := s.MustNewThread()
	rival := s.MustNewThread()

	// The first write records its undo entry; the forced abort fires on the
	// second write's post-acquire evaluation, so the rollback has work to do
	// and the mid-undo stall point is reached.
	var evals atomic.Int64
	failpoint.Set(failpoint.AcquiredBeforeWriteback, func(name string) {
		if evals.Add(1) == 2 {
			panic(failpoint.Abort{Point: name})
		}
	})
	st := failpoint.NewStall()
	failpoint.Set(failpoint.UndoMidRollback, st.Hook())

	var victimErr error
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		victimErr = victim.Atomic(func(tx *Tx) {
			_ = tx.Load(head) // visible read the rival must fence for
			tx.Store(n1, 51)
			tx.Store(n2, 52)
		})
	}()

	// The victim is now frozen mid-rollback: orecs held, still on the
	// central list, heap partially restored.
	st.WaitArrival()

	var rivalErr error
	rivalDone := make(chan struct{})
	go func() {
		defer close(rivalDone)
		rivalErr = rival.Atomic(func(tx *Tx) {
			_ = tx.Load(head)
			tx.Store(head, 7)
		})
	}()

	var info StallInfo
	select {
	case info = <-stalls:
	case <-time.After(faultWait):
		t.Fatal("privatization-fence watchdog never fired for the stalled rollback")
	}
	if info.Fence != FencePrivatization {
		t.Errorf("stall reported on %q fence, want %q", info.Fence, FencePrivatization)
	}

	// Detection must not have let the rival through.
	select {
	case <-rivalDone:
		t.Fatal("rival committed past the fence while the victim's cleanup was pending")
	default:
	}

	st.Release()
	for _, ch := range []chan struct{}{victimDone, rivalDone} {
		select {
		case <-ch:
		case <-time.After(faultWait):
			t.Fatal("worker did not finish after the stall was released")
		}
	}
	if victimErr != nil || rivalErr != nil {
		t.Fatalf("victim err %v, rival err %v", victimErr, rivalErr)
	}
	// The victim's retry (second attempt) committed its writes.
	if got := s.AtomicLoad(n1); got != 51 {
		t.Errorf("n1 = %d, want 51", got)
	}
	if got := s.AtomicLoad(n2); got != 52 {
		t.Errorf("n2 = %d, want 52", got)
	}
	if got := s.AtomicLoad(head); got != 7 {
		t.Errorf("head = %d, want 7", got)
	}
	if agg := s.Stats(); agg.FenceStalls < 1 {
		t.Errorf("FenceStalls = %d, want >= 1", agg.FenceStalls)
	}
}

// TestFaultStalledReaderWatchdog is the acceptance scenario: a reader that
// stops making progress mid-transaction (here: parked in its body) stalls a
// Val-system writer's validation fence, and the watchdog must identify the
// reader as the blocker while the fence — soundly — keeps waiting.
func TestFaultStalledReaderWatchdog(t *testing.T) {
	stalls := make(chan StallInfo, 16)
	s, err := New(Config{
		Algorithm:      Val,
		HeapWords:      1 << 12,
		OrecCount:      1 << 8,
		StallThreshold: 4,
		OnStall:        func(info StallInfo) { stalls <- info },
	})
	if err != nil {
		t.Fatal(err)
	}
	x := s.MustAlloc(1)
	reader := s.MustNewThread() // first registered thread: core ID 0
	writer := s.MustNewThread() // core ID 1

	readerIn := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	var readerErr error
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		readerErr = reader.Atomic(func(tx *Tx) {
			_ = tx.Load(x)
			once.Do(func() {
				close(readerIn)
				<-resume // no progress until released
			})
		})
	}()
	<-readerIn

	var writerErr error
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		writerErr = writer.Atomic(func(tx *Tx) { tx.Store(x, 1) })
	}()

	var info StallInfo
	select {
	case info = <-stalls:
	case <-time.After(faultWait):
		t.Fatal("validation-fence watchdog never fired for the parked reader")
	}
	if info.Fence != FenceValidation {
		t.Errorf("stall reported on %q fence, want %q", info.Fence, FenceValidation)
	}
	// Thread IDs are assigned in registration order.
	if info.WaiterID != 1 {
		t.Errorf("WaiterID = %d, want 1 (the fencing writer)", info.WaiterID)
	}
	if info.BlockerID != 0 {
		t.Errorf("BlockerID = %d, want 0 (the parked reader)", info.BlockerID)
	}
	select {
	case <-writerDone:
		t.Fatal("writer passed the validation fence while the reader was parked")
	default:
	}

	close(resume)
	for _, ch := range []chan struct{}{readerDone, writerDone} {
		select {
		case <-ch:
		case <-time.After(faultWait):
			t.Fatal("worker did not finish after the reader resumed")
		}
	}
	if readerErr != nil || writerErr != nil {
		t.Fatalf("reader err %v, writer err %v", readerErr, writerErr)
	}
	if agg := s.Stats(); agg.FenceStalls < 1 {
		t.Errorf("FenceStalls = %d, want >= 1", agg.FenceStalls)
	}
}

// TestFaultDoomedReaderSandboxed pins the JudoSTM-style sandbox: a body
// that panics after its read set has been invalidated (a rival committed
// over a word it read) is doomed — the panic is an artifact of torn state,
// and Run must convert it into a retry instead of propagating it.
func TestFaultDoomedReaderSandboxed(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	s, err := New(Config{Algorithm: PVRStore, HeapWords: 1 << 12, OrecCount: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	a := s.MustAlloc(1)
	s.AtomicStore(a, 7)
	reader := s.MustNewThread()
	writer := s.MustNewThread()

	readerIn := make(chan struct{})
	resume := make(chan struct{})
	// The writer releases the reader only once its write-back to a is
	// committed (post-release, pre-fence), so the reader's first attempt is
	// provably doomed when it panics.
	var releaseOnce sync.Once
	failpoint.Set(failpoint.CommitBeforeFence, func(string) {
		releaseOnce.Do(func() { close(resume) })
	})

	var writerErr error
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		<-readerIn
		writerErr = writer.Atomic(func(tx *Tx) { tx.Store(a, 9) })
	}()

	attempts := 0
	var firstOnce sync.Once
	readerErr := reader.Atomic(func(tx *Tx) {
		attempts++
		v := tx.Load(a)
		firstOnce.Do(func() {
			close(readerIn)
			<-resume
			// Read set now stale: simulate the kind of crash torn data
			// provokes in user code.
			panic("synthetic fault in doomed transaction")
		})
		if v != 9 {
			t.Errorf("retry read %d, want the committed 9", v)
		}
	})
	if readerErr != nil {
		t.Fatalf("sandboxed reader returned %v", readerErr)
	}
	if attempts != 2 {
		t.Errorf("body ran %d times, want 2 (doomed attempt + clean retry)", attempts)
	}
	if reader.Stats().Aborts < 1 {
		t.Error("doomed attempt was not counted as an abort")
	}
	select {
	case <-writerDone:
	case <-time.After(faultWait):
		t.Fatal("writer never finished")
	}
	if writerErr != nil {
		t.Fatal(writerErr)
	}
}

// TestFaultSerializedEscalationCommits is the acceptance scenario for the
// liveness guarantee: a transaction forced to abort MaxAttempts times
// escalates to the serialized-irrevocable path and commits on it, while
// rival read-modify-write traffic keeps running — and the combined history
// stays conflict-serializable.
func TestFaultSerializedEscalationCommits(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	const (
		registers = 4
		rivals    = 3
		txns      = 150
	)
	s, err := New(Config{
		Algorithm:   PVRStore,
		HeapWords:   1 << 12,
		OrecCount:   1 << 8,
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := s.MustAlloc(registers)

	// Only the victim's body evaluates this point, so Times targets it
	// precisely even with rivals running.
	failpoint.Set("test/escalate", failpoint.Times(3, failpoint.ForceAbort()))

	var mu sync.Mutex
	hist := &serial.History{}
	record := func(txn serial.Txn) {
		mu.Lock()
		hist.Txns = append(hist.Txns, txn)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < rivals; w++ {
		th := s.MustNewThread()
		tid := uint64(w + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				slot := base + Addr(i%registers)
				val := tid<<32 | uint64(i+1)
				var rec serial.Txn
				err := th.Atomic(func(tx *Tx) {
					rec = serial.Txn{ID: int(tid)<<24 | i}
					v := tx.Load(slot)
					rec.Reads = []serial.Op{{Addr: uint64(slot), Val: uint64(v)}}
					tx.Store(slot, Word(val))
					rec.Writes = []serial.Op{{Addr: uint64(slot), Val: val}}
				})
				if err != nil {
					t.Error(err)
					return
				}
				record(rec)
			}
		}()
	}

	victim := s.MustNewThread()
	attempts := 0
	var rec serial.Txn
	verr := victim.Atomic(func(tx *Tx) {
		attempts++
		failpoint.Eval("test/escalate")
		rec = serial.Txn{ID: 1 << 30}
		v := tx.Load(base)
		rec.Reads = []serial.Op{{Addr: uint64(base), Val: uint64(v)}}
		tx.Store(base, 0xfeed)
		rec.Writes = []serial.Op{{Addr: uint64(base), Val: 0xfeed}}
	})
	if verr != nil {
		t.Fatalf("escalated transaction failed: %v", verr)
	}
	record(rec)
	wg.Wait()

	if attempts != 4 {
		t.Errorf("victim body ran %d times, want 4 (3 forced aborts + serialized run)", attempts)
	}
	vs := victim.Stats()
	if vs.Serialized != 1 {
		t.Errorf("victim Serialized = %d, want 1", vs.Serialized)
	}
	if vs.Aborts < 3 {
		t.Errorf("victim Aborts = %d, want >= 3", vs.Aborts)
	}
	if vs.Commits != 1 {
		t.Errorf("victim Commits = %d, want 1", vs.Commits)
	}
	hist.SortByID()
	if err := serial.Check(hist); err != nil {
		t.Errorf("history of %d txns not serializable: %v", len(hist.Txns), err)
	}
	if want := rivals*txns + 1; len(hist.Txns) != want {
		t.Errorf("recorded %d txns, want %d", len(hist.Txns), want)
	}
}

// TestFaultWatchdogSilentOnHealthyRun guards against false positives: a
// contended but healthy workload at the default stall threshold must never
// trip the watchdog.
func TestFaultWatchdogSilentOnHealthyRun(t *testing.T) {
	for _, alg := range []Algorithm{Val, PVRStore} {
		t.Run(alg.String(), func(t *testing.T) {
			var fired atomic.Int64
			s, err := New(Config{
				Algorithm: alg,
				HeapWords: 1 << 12,
				OrecCount: 1 << 8,
				OnStall:   func(StallInfo) { fired.Add(1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			base := s.MustAlloc(4)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				th := s.MustNewThread()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						if err := th.Atomic(func(tx *Tx) {
							slot := base + Addr(i%4)
							tx.Store(slot, tx.Load(slot)+1)
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if n := fired.Load(); n != 0 {
				t.Errorf("watchdog fired %d times on a healthy run", n)
			}
			if agg := s.Stats(); agg.FenceStalls != 0 {
				t.Errorf("FenceStalls = %d, want 0", agg.FenceStalls)
			}
		})
	}
}

// TestFaultParkedReaderBlocksReclaim is the deterministic version of the
// use-after-reclaim schedule the explorer hunts for: a reader captures a
// node's address and then parks mid-transaction (a doomed reader in the §I
// sense), a writer unlinks the node, commits, and retires it. The epoch
// reclaimer must hold the extent in limbo — no collection pass may free it,
// and no allocation may re-serve its address — for as long as the parked
// reader remains on the incomplete-transaction tracker. The moment the
// reader leaves, a drain frees the extent and the very next allocation
// reuses it.
func TestFaultParkedReaderBlocksReclaim(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	// PVRStore: transactions sit on the central list (the reclaimer's
	// epoch source), and the commit fence engages only when the
	// reader-conflict scan finds an actual read of a written orec — so a
	// writer touching words the parked reader never read commits without
	// fencing, and the epoch check alone stands between the doomed reader
	// and reuse.
	s, err := New(Config{Algorithm: PVRStore, HeapWords: 1 << 12, OrecCount: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	const nodeWords = 2
	head := s.MustAlloc(1)
	x := s.MustAlloc(1)
	node := s.MustAlloc(nodeWords)
	s.AtomicStore(node, 77)
	s.AtomicStore(head, Word(node))

	reader := s.MustNewThread()
	writer := s.MustNewThread()

	// The reader parks at a test-local failpoint right after loading the
	// node's address — frozen with a begin timestamp older than any retire
	// stamp the writer can produce.
	st := failpoint.NewStall()
	failpoint.Set("test/reader-parked", st.Hook())

	var got Addr
	var readerErr error
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		readerErr = reader.Atomic(func(tx *Tx) {
			got = tx.LoadAddr(head)
			failpoint.Eval("test/reader-parked")
		})
	}()
	st.WaitArrival()

	// The unlinking commit: it writes a link word the reader has not read
	// (no conflict, no fence), ticks the clock past the reader's begin,
	// and hands the node to the reclaimer.
	if err := writer.Atomic(func(tx *Tx) { tx.Store(x, 1) }); err != nil {
		t.Fatal(err)
	}
	writer.Retire(node, nodeWords)
	writer.FlushReclaim()

	if freed := s.DrainReclaim(); freed != 0 {
		t.Fatalf("drain freed %d extents with the doomed reader still parked, want 0", freed)
	}
	if rs := s.ReclaimStats(); rs.Limbo != 1 || rs.Freed != 0 {
		t.Fatalf("reclaim stats %+v, want the node quarantined (Limbo=1 Freed=0)", rs)
	}
	if a := s.MustAlloc(nodeWords); a == node {
		t.Fatalf("allocation re-served %d while the parked reader still holds its address", a)
	}

	st.Release()
	select {
	case <-readerDone:
	case <-time.After(faultWait):
		t.Fatal("reader never finished after release")
	}
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if got != node {
		t.Fatalf("reader captured %d, want the node address %d", got, node)
	}

	// The reader has left the tracker: the same drain now frees the node,
	// and the next same-size allocation reuses it.
	if freed := s.DrainReclaim(); freed != 1 {
		t.Fatalf("drain freed %d after the reader left, want 1", freed)
	}
	if a := s.MustAlloc(nodeWords); a != node {
		t.Fatalf("post-drain alloc = %d, want the recycled node %d", a, node)
	}
}

// TestFaultRetireDuringRollback attacks the delayed-cleanup window of §I
// from the reclaimer's side: a writer is forced to abort and then stalled
// mid-undo-rollback — aborted, but still on the central list with its
// begin timestamp published. An extent retired during that window carries a
// younger stamp, so collection must keep it quarantined until the victim's
// cleanup completes and its retry commits.
func TestFaultRetireDuringRollback(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	s, err := New(Config{Algorithm: PVRStore, HeapWords: 1 << 12, OrecCount: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	const nodeWords = 2
	n1 := s.MustAlloc(1)
	n2 := s.MustAlloc(1)
	x := s.MustAlloc(1)
	node := s.MustAlloc(nodeWords)

	victim := s.MustNewThread()
	helper := s.MustNewThread()

	// First store records its undo entry; the forced abort fires on the
	// second store's post-acquire evaluation, so the rollback has a
	// pre-image to restore and the mid-undo stall point is reached.
	var evals atomic.Int64
	failpoint.Set(failpoint.AcquiredBeforeWriteback, func(name string) {
		if evals.Add(1) == 2 {
			panic(failpoint.Abort{Point: name})
		}
	})
	st := failpoint.NewStall()
	failpoint.Set(failpoint.UndoMidRollback, st.Hook())

	var victimErr error
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		// Stores only: the helper's commit below must not fence on this
		// transaction (PVRStore fences wait on readers, and there are none),
		// so the reclaimer's epoch check is the only thing protecting the
		// retired extent from the stalled victim.
		victimErr = victim.Atomic(func(tx *Tx) {
			tx.Store(n1, 51)
			tx.Store(n2, 52)
		})
	}()
	st.WaitArrival()

	// The victim is frozen mid-rollback: orecs held, begin timestamp still
	// published. Tick the clock past it and retire.
	if err := helper.Atomic(func(tx *Tx) { tx.Store(x, 1) }); err != nil {
		t.Fatal(err)
	}
	helper.Retire(node, nodeWords)
	helper.FlushReclaim()

	if freed := s.DrainReclaim(); freed != 0 {
		t.Fatalf("drain freed %d extents while the aborted victim's cleanup was pending, want 0", freed)
	}
	if rs := s.ReclaimStats(); rs.Limbo != 1 {
		t.Fatalf("reclaim stats %+v, want Limbo=1", rs)
	}
	if a := s.MustAlloc(nodeWords); a == node {
		t.Fatalf("allocation re-served %d during the victim's rollback window", a)
	}

	st.Release()
	select {
	case <-victimDone:
	case <-time.After(faultWait):
		t.Fatal("victim never finished after the rollback stall was released")
	}
	if victimErr != nil {
		t.Fatal(victimErr)
	}
	// The retry (second attempt) committed.
	if got := s.AtomicLoad(n1); got != 51 {
		t.Errorf("n1 = %d, want 51", got)
	}
	if got := s.AtomicLoad(n2); got != 52 {
		t.Errorf("n2 = %d, want 52", got)
	}

	if freed := s.DrainReclaim(); freed != 1 {
		t.Fatalf("drain freed %d after the victim completed, want 1", freed)
	}
	if a := s.MustAlloc(nodeWords); a != node {
		t.Fatalf("post-drain alloc = %d, want the recycled extent %d", a, node)
	}
}

// TestFaultCollectDuringFence interleaves a collection pass with a writer
// blocked in its privatization fence: the old reader the fence is draining
// is the same incomplete transaction that pins the reclamation watermark,
// so a retire+collect issued while the fence waits must leave the extent
// quarantined. When the reader resumes, fence and epoch release together —
// and the extent frees.
func TestFaultCollectDuringFence(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	s, err := New(Config{Algorithm: PVRStore, HeapWords: 1 << 12, OrecCount: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	const nodeWords = 2
	x := s.MustAlloc(1)
	node := s.MustAlloc(nodeWords)

	reader := s.MustNewThread()
	writer := s.MustNewThread()
	third := s.MustNewThread()

	// Signals the writer's first poll inside the privatization fence.
	fenceIn := make(chan struct{})
	var fenceOnce sync.Once
	failpoint.Set(failpoint.FencePrivWait, func(string) {
		fenceOnce.Do(func() { close(fenceIn) })
	})

	readerIn := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	var readerErr error
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		readerErr = reader.Atomic(func(tx *Tx) {
			_ = tx.Load(x)
			once.Do(func() {
				close(readerIn)
				<-resume
			})
		})
	}()
	<-readerIn

	var writerErr error
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		writerErr = writer.Atomic(func(tx *Tx) { tx.Store(x, 1) })
	}()
	select {
	case <-fenceIn:
	case <-time.After(faultWait):
		t.Fatal("writer never reached its privatization fence")
	}

	// The writer is past its commit point (clock ticked) and parked in the
	// fence; the parked reader holds both the fence and the watermark.
	third.Retire(node, nodeWords)
	third.FlushReclaim()
	if freed := s.DrainReclaim(); freed != 0 {
		t.Fatalf("drain freed %d extents while the fence was still draining the reader, want 0", freed)
	}
	rs := s.ReclaimStats()
	if rs.Limbo != 1 {
		t.Fatalf("reclaim stats %+v, want Limbo=1", rs)
	}
	if rs.Collects == 0 {
		t.Fatal("no collection pass ran during the fence window")
	}
	select {
	case <-writerDone:
		t.Fatal("writer passed the privatization fence while the reader was parked")
	default:
	}

	close(resume)
	for _, ch := range []chan struct{}{readerDone, writerDone} {
		select {
		case <-ch:
		case <-time.After(faultWait):
			t.Fatal("worker did not finish after the reader resumed")
		}
	}
	if readerErr != nil || writerErr != nil {
		t.Fatalf("reader err %v, writer err %v", readerErr, writerErr)
	}
	if freed := s.DrainReclaim(); freed != 1 {
		t.Fatalf("drain freed %d after fence and reader completed, want 1", freed)
	}
	if a := s.MustAlloc(nodeWords); a != node {
		t.Fatalf("post-drain alloc = %d, want the recycled extent %d", a, node)
	}
}

// TestSandboxDisabledAllocates0 pins the Config.DisableSandboxChecks
// bargain (referenced from core.Thread.ValidateBeforeUse): with checks off,
// a transaction crossing both sandbox checkpoints — LoadPriv's
// validate+bounds check and Div's zero-divisor gate — allocates nothing and
// records no validations; with checks on, the same body is counted.
func TestSandboxDisabledAllocates0(t *testing.T) {
	build := func(disable bool) (*STM, *Thread, func(*Tx)) {
		s, err := New(Config{Algorithm: PVRStore, HeapWords: 1 << 12, OrecCount: 1 << 8,
			DisableSandboxChecks: disable})
		if err != nil {
			t.Fatal(err)
		}
		ptr := s.MustAlloc(1)
		data := s.MustAlloc(1)
		s.AtomicStore(data, 21)
		s.AtomicStore(ptr, Word(data))
		th := s.MustNewThread()
		body := func(tx *Tx) {
			d := tx.LoadAddr(ptr)
			if v := tx.Div(tx.LoadPriv(d), 3); v != 7 {
				t.Errorf("sandboxed compute = %d, want 7", v)
			}
		}
		return s, th, body
	}

	s, th, body := build(true)
	if err := th.Atomic(body); err != nil { // warm up logs
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := th.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("disabled-sandbox transaction allocates %.1f per txn, want 0", n)
	}
	if got := s.Stats().SandboxValidations; got != 0 {
		t.Errorf("SandboxValidations = %d with checks disabled, want 0", got)
	}

	// Control: the same body under an enabled sandbox counts its LoadPriv
	// checkpoint, proving the counter (and the checks) are actually wired.
	s2, th2, body2 := build(false)
	if err := th2.Atomic(body2); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().SandboxValidations; got == 0 {
		t.Error("SandboxValidations stayed 0 with checks enabled")
	}
}
