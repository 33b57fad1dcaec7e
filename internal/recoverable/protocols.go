package recoverable

import (
	"detobj/internal/consensus"
	"detobj/internal/registers"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// E20's calibration protocols: 2-process consensus from a racing object,
// written once in a restart-aware shape and instantiated four times —
// plain test-and-set, recoverable test-and-set, plain WRN_2, recoverable
// WRN_2. The shape is the standard recoverable-consensus recipe:
//
//	if d := dec[id].Read(ctx); d != nil { return d }   // restart prefix
//	props[id].Write(ctx, v)                            // publish
//	win := race(ctx)                                   // the object step
//	d := v or props[1-id].Read(ctx)                    // keep or adopt
//	dec[id].Write(ctx, d)                              // durable decision
//	return d
//
// The decision and proposal registers are plain simulator objects and
// hence durable (only sim.Recoverable objects lose state at a crash), so
// every difference in verdict between the four instantiations is
// attributable to the racing object alone. Under full persistence (or no
// crashes at all) all four agree in every execution. Under amnesiac
// restart the plain objects break: a winner that crashes between the
// race and the decision write re-runs the race and is told it lost —
// plain test-and-set answers 1 to everyone once set, and a re-applied
// WRN_2 step reads the other process's later cell write instead of its
// original ⊥ — so both processes adopt each other's proposal and
// disagree. The recoverable variants survive the same schedules: the
// recoverable test-and-set durably records the winner's identity and
// re-answers 0 to it, and the recoverable WRN_2's journal replays the
// original ⊥ response instead of re-executing the step. That asymmetry
// is the consensus-power drop of Ovens 2024, and `detobj run e20`
// checks all four columns exhaustively.

// twoConsDecisionDurable builds the shared restart-aware protocol shape
// around a racing step; race reports whether the caller won.
func twoConsDecisionDurable(objects map[string]sim.Object, name string, v0, v1 sim.Value,
	race func(ctx *sim.Ctx, id int) bool) []sim.Program {
	props := registers.AddRegisterArray(objects, name+".prop", 2, nil)
	dec := registers.AddRegisterArray(objects, name+".dec", 2, nil)
	mk := func(id int, v sim.Value) sim.Program {
		return func(ctx *sim.Ctx) sim.Value {
			if d := dec[id].Read(ctx); d != nil {
				return d
			}
			props[id].Write(ctx, v)
			var d sim.Value
			if race(ctx, id) {
				d = v
			} else {
				d = props[1-id].Read(ctx)
			}
			dec[id].Write(ctx, d)
			return d
		}
	}
	return []sim.Program{mk(0, v0), mk(1, v1)}
}

// TwoConsFromPlainTAS instantiates the shape with the crash-stop
// test-and-set of internal/consensus. Correct without restarts; breaks
// under amnesiac restart (the win/lose answer is unrecoverable).
func TwoConsFromPlainTAS(objects map[string]sim.Object, name string, v0, v1 sim.Value) []sim.Program {
	objects[name+".tas"] = consensus.NewTestAndSet()
	ts := consensus.TASRef{Name: name + ".tas"}
	return twoConsDecisionDurable(objects, name, v0, v1, func(ctx *sim.Ctx, id int) bool {
		return ts.TAS(ctx) == 0
	})
}

// TwoConsFromRecTAS instantiates the shape with the recoverable
// test-and-set: the durable winner record makes the race idempotent per
// process, so the protocol also survives amnesiac restarts.
func TwoConsFromRecTAS(objects map[string]sim.Object, name string, v0, v1 sim.Value) []sim.Program {
	objects[name+".tas"] = NewTestAndSet()
	ts := TASRef{Name: name + ".tas"}
	return twoConsDecisionDurable(objects, name, v0, v1, func(ctx *sim.Ctx, id int) bool {
		return ts.TAS(ctx) == 0
	})
}

// TwoConsFromPlainWRN2 instantiates the shape with the paper's plain
// WRN_2 (internal/wrn). Correct without restarts; breaks under amnesiac
// restart (re-applying the single WRN step reads the other process's
// later write instead of the original ⊥).
func TwoConsFromPlainWRN2(objects map[string]sim.Object, name string, v0, v1 sim.Value) []sim.Program {
	objects[name+".wrn"] = wrn.New(2)
	w := wrn.Ref{Name: name + ".wrn"}
	return twoConsDecisionDurable(objects, name, v0, v1, func(ctx *sim.Ctx, id int) bool {
		return wrn.IsBottom(w.WRN(ctx, id, id+1))
	})
}

// TwoConsFromRecWRN2 instantiates the shape with the recoverable WRN_2:
// the journaled core replays the original response to a re-applied
// operation id, so the protocol also survives amnesiac restarts.
func TwoConsFromRecWRN2(objects map[string]sim.Object, name string, v0, v1 sim.Value) []sim.Program {
	w := NewWRN(objects, name+".wrn", 2)
	return twoConsDecisionDurable(objects, name, v0, v1, func(ctx *sim.Ctx, id int) bool {
		return wrn.IsBottom(w.WRN(ctx, id, id, id+1))
	})
}
