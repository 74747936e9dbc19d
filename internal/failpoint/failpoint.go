// Package failpoint is a stdlib-only fault-injection registry for the STM
// runtime. Named evaluation points are threaded through the critical windows
// the privatization proofs reason about (the catalog below); tests arm a
// point with a hook — delay, yield, stall-until-signaled, forced abort,
// panic — to turn the probabilistic races of the paper's §I (delayed
// cleanup, doomed transactions) into deterministic schedules.
//
// The same evaluation points double as the *yield points* of the
// deterministic schedule explorer (internal/sched): SetGlobal installs a
// hook that fires on every Eval regardless of name, which the explorer's
// controller uses to suspend the calling goroutine and hand the processor
// to the next worker in the schedule under test. The yield-point catalog —
// every site compiled into the runtime — is documented in CORRECTNESS.md
// §11.
//
// Production cost is one atomic pointer load and a nil check per Eval: the
// registry pointer is nil until the first Set or SetGlobal, and Reset
// returns it to nil. A pinned test (TestEvalDisabledAllocates0) and
// BenchmarkEvalDisabled keep the disabled path allocation-free.
package failpoint

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Catalog of the injection points compiled into the runtime. Each constant
// names the invariant window it sits in; CORRECTNESS.md §9 lists the proof
// each point lets tests attack.
const (
	// BeginEnteredBeforePublish fires between central-list registration and
	// the publication that makes the transaction observable (activity word,
	// visibility hints): pvr.Begin, pvr.goVisible, hybrid.maybeGoVisible.
	// Window: fences must already cover a transaction whose registration is
	// complete even though its hints are not yet visible.
	BeginEnteredBeforePublish = "core/begin/entered-before-publish"
	// AcquiredBeforeWriteback fires between ownership acquisition and the
	// data write: the in-place store of pvr.Write, and the redo-log
	// write-back of the tl2/ord/val/hybrid commits. Window: ownership must
	// exclude every conflicting access for the whole acquire→write span.
	AcquiredBeforeWriteback = "core/commit/acquired-before-writeback"
	// CommitBeforeFence fires after a writer's commit point (clock tick,
	// release, list departure) and before it enters its privatization or
	// validation fence. Window: the fence must still drain every reader the
	// commit-time scan saw, however late the writer arrives at it.
	CommitBeforeFence = "core/commit/before-fence"
	// UndoMidRollback fires before each pre-image restore of an undo-log
	// rollback. Window: an aborted transaction must stay on the central
	// list (and keep orec ownership) until its cleanup completes — the
	// delayed-cleanup failure mode of §I.
	UndoMidRollback = "core/rollback/mid-undo"
	// FencePrivWait and FenceValWait fire once per poll round inside the
	// privatization and validation fence wait loops. Window: the fences'
	// own liveness — the stall watchdog is tested through these.
	FencePrivWait = "core/fence/privatization-wait"
	FenceValWait  = "core/fence/validation-wait"

	// --- Yield-point generalization (schedule exploration) ---
	//
	// The sites below were added for internal/sched: each names a step of
	// the protocols whose orderings the paper's proofs constrain, so the
	// explorer can suspend a worker at every point where another worker's
	// interleaving could matter. They are ordinary failpoints — tests may
	// arm them individually too.

	// OrecAcquired fires immediately after a writer wins ownership of an
	// orec, before any data write under that ownership.
	OrecAcquired = "core/orec/acquired"
	// OrecRelease fires before each orec ownership release or restore
	// (commit-time ReleaseAll, abort-time RestoreAll).
	OrecRelease = "core/orec/release"
	// RedoWriteBackWord fires before each word of a redo-log write-back,
	// exposing the partially-written window of the buffered-update engines.
	RedoWriteBackWord = "core/commit/writeback-word"
	// FenceEnter and FenceExit bracket both fences, so schedules can
	// order other workers' steps against fence entry and release.
	FenceEnter = "core/fence/enter"
	FenceExit  = "core/fence/exit"
	// TrackerEnter, TrackerEnterAt and TrackerLeave fire right after a
	// transaction registers on (or deregisters from) the incomplete-
	// transaction tracker — the central-list transitions of §II-C.
	TrackerEnter   = "core/txnlist/enter"
	TrackerEnterAt = "core/txnlist/enter-at"
	TrackerLeave   = "core/txnlist/leave"
	// GraceRaise and GraceLower fire at the top of the §III-A grace-period
	// adapters (reader-side raise, writer-side lower).
	GraceRaise = "core/grace/raise"
	GraceLower = "core/grace/lower"
	// VisStoreWait fires once per poll of the §III-B store protocol's
	// curr_reader wait loop.
	VisStoreWait = "core/vis/store-wait"
	// SpinMutexWait fires once per contended iteration of spin.Mutex.Lock,
	// so a worker waiting on a spin lock yields to the explorer instead of
	// spinning against a suspended holder.
	SpinMutexWait = "spin/mutex/wait"
	// OrderWait fires once per poll of the §IV ordering locks' wait loops
	// (ticket and CLH queue).
	OrderWait = "ticket/order/wait"
	// CombineWait fires once per poll of a flat-combining committer waiting
	// to be served — by a leader (state → done) or by the ticket lock
	// (self-service). A worker parked here needs the current leader (or the
	// preceding ticket holders) to run.
	CombineWait = "ticket/combine/wait"
	// SlotsEnterAtLower fires inside txnlist.Slots.EnterAt between the
	// joiner's slot store and the watermark-cache check.
	SlotsEnterAtLower = "txnlist/watermark/enter-at-lower"
	// SlotsScanPublish fires in txnlist.Slots' oldest-begin recompute
	// around the scan-and-publish step (between scan and publish in the
	// privstm_watermark_race build that reverts the PR-2 locking fix; just
	// before the locked section otherwise).
	SlotsScanPublish = "txnlist/watermark/scan-publish"
	// CMWait fires before the contention-management wait between retry
	// attempts of an aborted transaction. It is a wait site: an aborted
	// transaction is effectively polling for its rival to get out of the
	// way, and a scheduler that kept granting it (each retry looks like
	// progress) would starve the suspended rival forever.
	CMWait = "core/retry/cm-wait"

	// --- Epoch-based reclamation (internal/reclaim, CORRECTNESS.md §14) ---

	// ReclaimRetire fires at the top of Reclaimer.Retire, before the extent
	// is stamped into the limbo list. Window: an old-snapshot reader that
	// captured the extent's address before the unlink must be able to keep
	// reading the quarantined words unharmed for the whole retire→collect
	// span.
	ReclaimRetire = "reclaim/retire"
	// ReclaimCollect fires once per extent a collection pass is about to
	// release, between the epoch check and the poison/free step. Window:
	// the watermark sampled by the pass must still cover every incomplete
	// transaction that could reach the extent when the free lands.
	ReclaimCollect = "reclaim/collect"
	// HeapReuse fires in heap.Alloc when an extent is served from the free
	// list, before it is zeroed and returned. Window: reuse is the step
	// that turns an epoch bug into a user-visible torn read — the explorer
	// orders other workers' steps against it.
	HeapReuse = "heap/alloc/reuse"

	// --- Abstract locks / semantic conflict detection (internal/tds,
	// CORRECTNESS.md §15) ---

	// SemAcquired fires after a committing writer wins one abstract-lock
	// stripe, before it acquires the next or validates its sampled stripes.
	// Window: stripes must exclude every conflicting semantic commit for the
	// whole acquire→release span, exactly like orecs.
	SemAcquired = "core/sem/acquired"
	// SemValidated fires at the end of a successful SemPreCommit of a
	// transaction with semantic activity: stripes held, samples checked,
	// commit timestamp not yet taken. Window: a rival may acquire a stripe
	// this transaction only sampled, and commit, right here; the re-check
	// after the timestamp (core.Thread.SemStillValid) must catch it.
	SemValidated = "core/sem/validated"
	// SemRelease fires before each abstract-lock stripe release or delta
	// bump in SemPostCommit. Window: the version bump must be observable to
	// any transaction that can observe the committed data (bump-before-
	// visibility: SemPostCommit runs while the word orecs are still owned).
	SemRelease = "core/sem/release"
	// SemQuiesceWait fires once per poll of the weak-reader quiescence wait
	// (Thread.WeakQuiesce): the privatizing thread is waiting for every
	// tracked transaction that began before its commit to complete.
	SemQuiesceWait = "core/sem/quiesce-wait"
)

// waitSites is the set of points that sit inside wait/poll loops: a worker
// suspended there is re-polling a condition some other worker must change.
// The schedule explorer deprioritizes workers yielding at these sites so a
// spin loop cannot monopolize the schedule. Kept here, next to the catalog,
// so a new wait loop's site cannot be forgotten in a second list.
var waitSites = map[string]bool{
	FencePrivWait: true,
	FenceValWait:  true,
	VisStoreWait:  true,
	SpinMutexWait: true,
	OrderWait:     true,
	CombineWait:   true,
	CMWait:        true,

	SemQuiesceWait: true,
}

// IsWaitSite reports whether name is a wait-loop yield point (see
// waitSites).
func IsWaitSite(name string) bool { return waitSites[name] }

// Func is a hook invoked when an armed point is evaluated; it receives the
// point's name so one hook can serve several points.
type Func func(name string)

// Abort is the panic value raised by ForceAbort hooks. core.Run recognizes
// it and converts the unwind into an ordinary abort-and-retry (the engine's
// Cancel cleans up), so tests can force a transaction to lose any number of
// attempts without fabricating real conflicts.
type Abort struct {
	// Point is the name of the failpoint that raised the abort.
	Point string
}

// point is one armed failpoint.
type point struct {
	fn   Func
	hits atomic.Uint64
}

// registry is the set of armed points. It is reached through an atomic
// pointer so that the disabled state is literally a nil pointer.
type registry struct {
	mu  sync.Mutex
	pts map[string]*point
	// global, when non-nil, is invoked for every evaluated point before
	// any per-name hook — the schedule explorer's yield hook.
	global Func
}

var reg atomic.Pointer[registry]

// Eval evaluates the named point: in production (nothing armed, the normal
// state) it is an atomic load and a nil check; with the registry armed it
// runs the point's hook, if any.
func Eval(name string) {
	r := reg.Load()
	if r == nil {
		return
	}
	r.eval(name)
}

func (r *registry) eval(name string) {
	r.mu.Lock()
	g := r.global
	p := r.pts[name]
	r.mu.Unlock()
	if g != nil {
		g(name)
	}
	if p == nil {
		return
	}
	p.hits.Add(1)
	if p.fn != nil {
		p.fn(name)
	}
}

// Set arms the named point with hook fn. Points persist until Disable or
// Reset; re-setting replaces the hook and zeroes the hit count.
func Set(name string, fn Func) {
	for {
		if r := reg.Load(); r != nil {
			r.mu.Lock()
			r.pts[name] = &point{fn: fn}
			r.mu.Unlock()
			return
		}
		fresh := &registry{pts: make(map[string]*point)}
		if reg.CompareAndSwap(nil, fresh) {
			fresh.mu.Lock()
			fresh.pts[name] = &point{fn: fn}
			fresh.mu.Unlock()
			return
		}
	}
}

// SetGlobal installs fn as the global yield hook: it is invoked for every
// evaluated point, before any per-name hook, with the point's name. The
// schedule explorer (internal/sched) is the intended caller. Arms the
// registry if it was disabled.
func SetGlobal(fn Func) {
	for {
		if r := reg.Load(); r != nil {
			r.mu.Lock()
			r.global = fn
			r.mu.Unlock()
			return
		}
		fresh := &registry{pts: make(map[string]*point), global: fn}
		if reg.CompareAndSwap(nil, fresh) {
			return
		}
	}
}

// ClearGlobal removes the global yield hook. The registry stays armed (per-
// name points keep working); call Reset to restore the zero-cost state.
func ClearGlobal() {
	if r := reg.Load(); r != nil {
		r.mu.Lock()
		r.global = nil
		r.mu.Unlock()
	}
}

// Disable disarms the named point. Its hit count is kept (Hits still works)
// and the registry stays armed; call Reset to restore the zero-cost state.
func Disable(name string) {
	if r := reg.Load(); r != nil {
		r.mu.Lock()
		if p := r.pts[name]; p != nil {
			p.fn = nil
		}
		r.mu.Unlock()
	}
}

// Reset disarms every point and returns Eval to its nil-check fast path.
// Tests register it as a cleanup: t.Cleanup(failpoint.Reset).
func Reset() { reg.Store(nil) }

// Hits reports how many times the named point has been evaluated since it
// was Set (0 if never armed).
func Hits(name string) uint64 {
	if r := reg.Load(); r != nil {
		r.mu.Lock()
		p := r.pts[name]
		r.mu.Unlock()
		if p != nil {
			return p.hits.Load()
		}
	}
	return 0
}

// Delay returns a hook that sleeps for d on every evaluation.
func Delay(d time.Duration) Func {
	return func(string) { time.Sleep(d) }
}

// YieldN returns a hook that yields the processor n times, opening a window
// for other goroutines without a timed sleep.
func YieldN(n int) Func {
	return func(string) {
		for i := 0; i < n; i++ {
			runtime.Gosched()
		}
	}
}

// ForceAbort returns a hook that panics with Abort; inside a transaction
// core.Run converts it into an abort-and-retry of the attempt.
func ForceAbort() Func {
	return func(name string) { panic(Abort{Point: name}) }
}

// Panic returns a hook that panics with v, for exercising the sandboxing
// and propagation paths of core.Run.
func Panic(v any) Func {
	return func(string) { panic(v) }
}

// Times wraps fn so that exactly the first n evaluations invoke it; later
// evaluations are inert. Safe for concurrent evaluation: the counter is
// claimed with a CAS loop that never goes below zero, so no interleaving of
// concurrent callers — and no number of later calls — can fire fn more than
// n times (a plain saturating decrement could wrap after 2^63 calls).
func Times(n int, fn Func) Func {
	var left atomic.Int64
	left.Store(int64(n))
	return func(name string) {
		for {
			v := left.Load()
			if v <= 0 {
				return
			}
			if left.CompareAndSwap(v, v-1) {
				fn(name)
				return
			}
		}
	}
}

// Stall parks every goroutine that evaluates its hook until Release. Tests
// use it to hold a transaction inside a critical window deterministically:
//
//	st := failpoint.NewStall()
//	failpoint.Set(failpoint.UndoMidRollback, failpoint.Times(1, st.Hook()))
//	... start the victim ...
//	st.WaitArrival() // victim is now parked inside the window
//	... drive the schedule under test ...
//	st.Release()
type Stall struct {
	arrived chan struct{}
	release chan struct{}
}

// NewStall returns a fresh stall gate.
func NewStall() *Stall {
	return &Stall{
		arrived: make(chan struct{}, 1024),
		release: make(chan struct{}),
	}
}

// Hook returns the parking hook.
func (s *Stall) Hook() Func {
	return func(string) {
		select {
		case s.arrived <- struct{}{}:
		default:
		}
		<-s.release
	}
}

// WaitArrival blocks until some goroutine has parked at the stall (each
// arrival is announced once; call again to await another).
func (s *Stall) WaitArrival() { <-s.arrived }

// Release unparks every current and future caller of the hook. Release is
// idempotent-unsafe by design (closing twice panics); call it once.
func (s *Stall) Release() { close(s.release) }
