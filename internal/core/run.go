package core

import (
	"privstm/internal/failpoint"
	"privstm/internal/heap"
)

// Engine is what Run drives: Policy (engine.go) is the one implementation
// outside tests. Read and Write abort the running transaction by panicking
// with the internal conflict signal (unwound inside Run); Commit returns
// false if the commit attempt aborted. Either way Run ends the attempt with
// Thread.abort, which undoes the in-place writes, releases the orecs,
// leaves the tracker and publishes the thread inactive. A failing Commit
// releases only what the commit alone holds (the abstract-lock stripes,
// the commit ticket).
type Engine interface {
	// Name returns the curve label used in the paper's figures
	// (e.g. "pvrStore").
	Name() string
	// Begin starts a transaction on t.
	Begin(t *Thread)
	// Read performs a transactional load.
	Read(t *Thread, a heap.Addr) heap.Word
	// Write performs a transactional store.
	Write(t *Thread, a heap.Addr, w heap.Word)
	// Commit attempts to commit, reporting success. On failure Run aborts
	// the attempt and may retry it.
	Commit(t *Thread) bool
}

// conflictSignal is the panic value used to unwind a doomed transaction.
type conflictSignal struct{}

// cancelSignal unwinds a transaction the user chose to roll back; Run does
// not retry it.
type cancelSignal struct{ err error }

// ConflictAbort unwinds the current transaction and retries it. Engines
// call it when they detect a conflict mid-transaction.
func (t *Thread) ConflictAbort() { panic(conflictSignal{}) }

// UserCancel unwinds the current transaction, rolls it back, and makes Run
// return err without retrying.
func (t *Thread) UserCancel(err error) { panic(cancelSignal{err: err}) }

// Run executes body as a transaction on engine e, retrying on conflict
// after a backoff wait between attempts. It returns nil on commit, or the
// error passed to UserCancel if the body cancelled itself.
//
// Run sandboxes the body, JudoSTM-style (§IV): if the body panics for any
// reason other than the internal signals while its read set is invalid, the
// transaction was doomed — it may have observed inconsistent state, and the
// panic is an artifact (e.g. an out-of-range address computed from torn
// data). Such panics are converted into aborts and retried. A panic raised
// while the read set is still valid is a genuine bug in the body and is
// propagated after rollback.
//
// After Runtime.attemptLimit consecutive aborts the transaction escalates
// to the serialized-irrevocable fallback (runSerialized): it takes the
// global token, drains every other in-flight transaction, and runs alone to
// a guaranteed commit — graceful degradation instead of livelock under
// pathological contention. No CM wait is inserted between the final failed
// attempt and the escalation: the token acquisition is the wait.
func Run(e Engine, t *Thread, body func()) error {
	t.Attempts = 0
	limit := t.RT.attemptLimit()
	for {
		e.Begin(t)
		done, err := runOnce(e, t, body)
		if done {
			t.Stats.Commits++
			t.cm.Reset()
			return err
		}
		t.Stats.Aborts++
		t.Attempts++
		if limit > 0 && t.Attempts >= limit {
			return runSerialized(e, t, body)
		}
		failpoint.Eval(failpoint.CMWait)
		t.cm.Wait()
	}
}

// runSerialized is the serialized-irrevocable fallback: the transaction
// acquires the global token (serializing against other escalated threads),
// waits out every in-flight transaction, and retries alone. With the Begin
// gate closed no new rival can start, so the only transactions that can
// still abort it are gate-slippers — threads that passed the gate before
// the token was published — and those are finite, so the loop terminates
// with a commit (see CORRECTNESS.md §9 for the full argument).
func runSerialized(e Engine, t *Thread, body func()) error {
	tok := &t.RT.serialTok
	tok.acquire(t)
	defer tok.release(t)
	for {
		t.RT.drainOthers(t)
		e.Begin(t)
		done, err := runOnce(e, t, body)
		if done {
			t.Stats.Serialized++
			t.Stats.Commits++
			t.cm.Reset()
			return err
		}
		// A gate-slipper got in ahead of the drain; re-drain and retry.
		t.Stats.Aborts++
		t.Attempts++
	}
}

func runOnce(e Engine, t *Thread, body func()) (done bool, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch s := r.(type) {
		case conflictSignal, failpoint.Abort:
			// A conflict, or an injected abort regardless of read-set
			// validity: retry.
		case cancelSignal:
			done, err = true, s.err
		default:
			// With a valid read set the panic is a bug in the body: abort,
			// then propagate it. (Validate before abort releases our orecs,
			// which ValidateReads passes over while we own them.) Otherwise
			// the attempt was doomed and the panic came from inconsistent
			// reads: abort and retry.
			if t.ValidateReads() {
				t.abort()
				panic(r)
			}
		}
		t.abort()
	}()
	body()
	if e.Commit(t) {
		t.FinishCommit() // apply RetireOnCommit + settle txn allocations
		return true, nil
	}
	t.abort()
	return false, nil
}

// abort ends an aborted attempt, whatever its cause, on every engine. The
// order is §II-C's: the in-place writes are undone while their orecs are
// still owned; the orecs are released at a fresh clock tick, so an owner
// word never returns to a value a reader sampled before the acquisition
// (CORRECTNESS.md §2); and only then does PublishInactive take the
// transaction off the tracker, so fences wait for it until its cleanup is
// complete. Aborted transactions never fence.
func (t *Thread) abort() {
	t.Undo.Rollback(t.RT.Heap)
	if t.Acq.Len() > 0 {
		t.releaseAborted()
	}
	t.PublishInactive()
}
