package chaos

// Bounded: graceful degradation in the simulator. The model says
// an exhausted or illegal operation hangs the caller undetectably;
// Bounded is the one sanctioned crossing of that boundary. It wraps any
// sim.Object and converts the two ways a caller can lose progress —
// the inner object hanging it, or the caller exceeding a per-process
// step budget — into a returned ErrExhausted value the program can
// branch on. Deciding to degrade detectably changes the object's
// power (errors are observable, hangs are not; see DESIGN.md), which is
// why the conversion lives here, in the chaos layer, and not in the
// objects themselves.

import (
	"errors"

	"detobj/internal/sim"
)

// ErrExhausted is the typed exhaustion error a Bounded wrapper returns
// in place of a hang; the facade re-exports it, so errors.Is works
// across it.
var ErrExhausted = errors.New("chaos: operation budget exhausted")

// Bounded wraps a sim.Object with a per-process step budget and
// hang-to-error conversion. It is deterministic: the same run yields
// the same budgets spent and the same degradations.
type Bounded struct {
	inner  sim.Object
	budget int
	used   map[int]int
}

// NewBounded wraps inner. budget bounds the number of steps each
// process may apply through the wrapper; 0 means unlimited (only
// hang-to-error conversion remains).
func NewBounded(inner sim.Object, budget int) *Bounded {
	return &Bounded{inner: inner, budget: budget, used: make(map[int]int)}
}

// Apply implements sim.Object: over-budget callers and callers the
// inner object would hang receive ErrExhausted as their result value
// instead of parking forever.
func (b *Bounded) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	if b.budget > 0 {
		b.used[env.Proc]++
		if b.used[env.Proc] > b.budget {
			//detlint:allow hangsemantics Bounded IS the documented graceful-degradation boundary: it deliberately converts over-budget hangs into the typed exhaustion error (DESIGN.md)
			return sim.Respond(ErrExhausted)
		}
	}
	resp := b.inner.Apply(env, inv)
	if resp.Effect == sim.Hang {
		//detlint:allow hangsemantics Bounded IS the documented graceful-degradation boundary: it deliberately converts the inner object's hang into the typed exhaustion error (DESIGN.md)
		return sim.Respond(ErrExhausted)
	}
	return resp
}

// Exhausted reports whether a value returned through a Bounded wrapper
// is the typed exhaustion error.
func Exhausted(v sim.Value) bool {
	err, ok := v.(error)
	//detlint:allow hangsemantics checking for the boundary sentinel is part of the documented degradation contract
	return ok && err == ErrExhausted
}
