package modelcheck

import (
	"fmt"

	"detobj/internal/sim"
)

// ValencyReport summarizes the valency analysis of a protocol's execution
// tree, in the sense of FLP and Herlihy (§6): a configuration's valency is
// the set of decision values reachable from it.
type ValencyReport struct {
	// Configs is the number of configurations (schedule prefixes) explored.
	Configs int
	// Executions is the number of complete executions.
	Executions int
	// Bivalent is the number of configurations from which more than one
	// decision value is reachable.
	Bivalent int
	// Critical is the number of critical configurations: bivalent
	// configurations all of whose successors are univalent.
	Critical int
	// Agreement is true when every single execution is internally
	// consistent (all deciders in that execution decide the same value).
	Agreement bool
	// Values is the sorted set of decision values over all executions.
	Values []string
	// DisagreementSchedule, when Agreement is false, is a schedule whose
	// execution contains two different decisions.
	DisagreementSchedule []int
}

// errNondetValency wraps a choice demand: valency analysis is defined
// over deterministic objects only.
func errNondetValency(err error) error {
	return fmt.Errorf("modelcheck: valency analysis requires deterministic objects: %w", err)
}

// AnalyzeValency explores the full execution tree of a consensus-style
// protocol and reports its valency structure. Decision values are the
// outputs of processes with StatusDone. limit bounds complete executions.
func AnalyzeValency(f Factory, limit int) (*ValencyReport, error) {
	return AnalyzeValencyUnder(f, nil, limit)
}

// AnalyzeValencyUnder is AnalyzeValency with an adversary interposed
// between the engine's scripted schedules and the simulator: wrap
// receives the sim.Fixed prefix scheduler of one run and returns the
// scheduler the run actually uses — typically a chaos crash-restart
// adversary delegating Next to the inner scheduler while injecting
// sim.Fault directives of its own. wrap is invoked once per fresh run,
// that is once for the root and once per later sibling; a first child
// carries its parent's run, adversary included. A stateful adversary
// must therefore be constructed inside wrap (not closed over) and
// decide from the history it observes alone: a carried run then
// reaches every configuration with the adversary state a fresh replay
// of the same prefix would rebuild, under identical fault decisions,
// which keeps the execution tree well-defined. The returned scheduler
// must pass every Next view to the inner scheduler unchanged and return
// its answer unchanged: the engine reads a node's children off the
// enabled set at which the inner scheduler parks the run, so a wrap
// that filters or overrides Next detaches the run from the tree.
// Faults are the adversary's only lever. A nil wrap degenerates to
// AnalyzeValency — the full-persistence baseline, since without fault
// directives a crash-recovery pause keeps all state.
//
// The report reads as usual, but over the faulty tree: Agreement is
// false exactly when some schedule prefix plus the adversary's
// deterministic faults drives the protocol's deciders to different
// values. This is the engine behind the E20 calibration: an object
// whose protocol agrees under nil wrap but disagrees under an amnesiac
// crash-restart wrap has lost consensus power to the restart (Ovens
// 2024), while a recoverable implementation keeps Agreement true under
// both.
//
// It always runs the reducer's exhaustive mode, nil wrap included. A
// signature cannot see the adversary's state (its firing step, whether
// the victim has crashed and restarted), so the table would merge
// configurations that continue differently, and a named victim breaks
// process symmetry. With nil wrap the table stays off so that
// AnalyzeValency remains the count cmd/modelcheck -stats checks it by.
func AnalyzeValencyUnder(f Factory, wrap func(inner sim.Scheduler) sim.Scheduler, limit int) (*ValencyReport, error) {
	red, err := newReducer(f, Reduced{NoDedup: true}, limit)
	if err != nil {
		return nil, err
	}
	red.wrap = wrap
	rep, _, err := red.valency()
	return rep, err
}
