// cm.go is the contention-management layer of the retry loop: pluggable
// inter-attempt wait policies, and the serialized-irrevocable escalation
// that guarantees progress after MaxAttempts consecutive aborts (see
// CORRECTNESS.md §9 "Liveness").
package core

import (
	"fmt"
	"sync/atomic"

	"privstm/internal/spin"
)

// CMPolicy selects the contention-management policy applied between
// attempts of an aborted transaction (Options.CM / stm.Config.ContentionManager).
type CMPolicy int

const (
	// CMBackoff is the default: truncated exponential backoff with
	// yielding (the pre-existing behaviour, now with escalation after
	// MaxAttempts aborts).
	CMBackoff CMPolicy = iota
	// CMKarma approximates karma-style priority: a transaction accumulates
	// "karma" proportional to the work it has invested (read/write-set
	// sizes at abort time), and once rich enough it refuses to enter the
	// sleep phase of the backoff — long transactions retry aggressively
	// instead of parking behind short ones.
	CMKarma
	// CMSerialize escalates to the serialized-irrevocable fallback after
	// the very first abort — a livelock-free (if sequential) mode useful
	// for ablations and pathological workloads.
	CMSerialize
)

// String returns the stmbench flag spelling of the policy.
func (p CMPolicy) String() string {
	switch p {
	case CMBackoff:
		return "backoff"
	case CMKarma:
		return "karma"
	case CMSerialize:
		return "serialize"
	default:
		return fmt.Sprintf("CMPolicy(%d)", int(p))
	}
}

// ParseCMPolicy maps a flag spelling back to its policy.
func ParseCMPolicy(s string) (CMPolicy, error) {
	for _, p := range []CMPolicy{CMBackoff, CMKarma, CMSerialize} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown contention manager %q (want backoff, karma, or serialize)", s)
}

// DefaultMaxAttempts is the abort budget before a transaction escalates to
// the serialized-irrevocable fallback (Options.MaxAttempts = 0).
const DefaultMaxAttempts = 64

// contentionManager is the per-thread wait policy. Wait is called once per
// abort (except the final abort before escalation); Reset after a commit,
// so the next transaction starts from the cheap phase.
type contentionManager interface {
	Wait(t *Thread)
	Reset()
}

// backoffCM is CMBackoff: a plain spin.Backoff.
type backoffCM struct {
	b spin.Backoff
}

func (c *backoffCM) Wait(*Thread) { c.b.Wait() }
func (c *backoffCM) Reset()       { c.b.Reset() }

// karmaSleepExempt is the karma at which a transaction stops entering the
// backoff's sleep phase. With karma counted as 1 + |reads| + |writes| per
// abort, a handful of aborts of a modest transaction reaches it.
const karmaSleepExempt = 256

// karmaCM is CMKarma. It reuses the backoff schedule but tracks invested
// work; a high-karma transaction is held out of the sleep phase (its next
// Wait is reset to the busy phase), implementing "priority to the
// transaction that has done the most work" without any cross-thread state:
// low-karma rivals park for up to 1024µs while the rich transaction
// retries, which resolves ties in its favour with high probability.
type karmaCM struct {
	b     spin.Backoff
	karma uint64
}

func (c *karmaCM) Wait(t *Thread) {
	c.karma += 1 + uint64(t.Reads.Len()) + uint64(t.Undo.Len()) + uint64(t.Redo.Len())
	if c.b.Phase() == spin.PhaseSleep && c.karma >= karmaSleepExempt {
		c.b.Reset()
	}
	c.b.Wait()
}

func (c *karmaCM) Reset() {
	c.b.Reset()
	c.karma = 0
}

// newCM builds the configured policy for one thread.
func (rt *Runtime) newCM() contentionManager {
	switch rt.CMKind {
	case CMKarma:
		return &karmaCM{}
	default:
		// CMSerialize never waits between attempts (it escalates after the
		// first abort); plain backoff is a harmless placeholder.
		return &backoffCM{}
	}
}

// attemptLimit resolves Options.MaxAttempts into the abort count at which
// Run escalates: 0 disables escalation entirely.
func (rt *Runtime) attemptLimit() int {
	if rt.CMKind == CMSerialize {
		return 1
	}
	switch {
	case rt.MaxAttempts < 0:
		return 0 // escalation disabled
	case rt.MaxAttempts == 0:
		return DefaultMaxAttempts
	default:
		return rt.MaxAttempts
	}
}

// serialToken is the global irrevocability token. The mutex serializes
// escalated transactions against each other; the holder word is what every
// Begin checks (gateSerialized) so that no new transaction starts while an
// irrevocable one runs.
type serialToken struct {
	mu     spin.Mutex
	holder atomic.Uint64 // thread ID + 1, or 0 when free
}

func (s *serialToken) acquire(t *Thread) {
	s.mu.Lock()
	s.holder.Store(t.ID + 1)
}

func (s *serialToken) release(t *Thread) {
	s.holder.Store(0)
	s.mu.Unlock()
}

// gateSerialized blocks while another thread holds the irrevocability
// token. Policy.Begin calls it first, so once the token holder has drained
// the already-running transactions it executes alone. The fast path is one
// atomic load.
func (t *Thread) gateSerialized() {
	tok := &t.RT.serialTok
	if tok.holder.Load() == 0 {
		return
	}
	var b spin.Backoff
	for {
		h := tok.holder.Load()
		if h == 0 || h == t.ID+1 {
			return
		}
		b.Wait()
	}
}

// drainOthers waits until every other registered thread has published
// inactive. Called by the token holder after acquiring the token: any
// transaction that began before the token was visible runs to completion
// (commit or abort — both end in PublishInactive), and no new one can begin
// past the gate, so on return the holder executes alone.
func (rt *Runtime) drainOthers(t *Thread) {
	rt.ForEachThread(func(u *Thread) {
		if u == t {
			return
		}
		var b spin.Backoff
		for {
			if _, active := u.Published(); !active {
				return
			}
			b.Wait()
		}
	})
}
