// cm.go is the contention-management layer of the retry loop: truncated
// exponential backoff between attempts, and the serialized-irrevocable
// escalation that guarantees progress after MaxAttempts consecutive aborts
// (see CORRECTNESS.md §9 "Liveness").
package core

import (
	"sync/atomic"

	"privstm/internal/spin"
)

// DefaultMaxAttempts is the abort budget before a transaction escalates to
// the serialized-irrevocable fallback (Options.MaxAttempts = 0).
const DefaultMaxAttempts = 64

// attemptLimit resolves Options.MaxAttempts into the abort count at which
// Run escalates: 0 disables escalation entirely.
func (rt *Runtime) attemptLimit() int {
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
