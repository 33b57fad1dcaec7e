package modelcheck

import (
	"fmt"
	"sort"

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

// valencyAcc accumulates the report fields during one (sub)tree
// recursion. Every field is either a commutative count or resolved by
// depth-first position (disagreement), so per-subtree accumulators can
// be merged deterministically by AnalyzeValencyParallel.
type valencyAcc struct {
	configs, executions, bivalent, critical int
	values                                  map[string]bool
	// disagrees records that some execution disagreed; disagreement is
	// the DFS-first such schedule, which is nil for the root's empty
	// schedule, so it cannot double as the flag.
	disagrees    bool
	disagreement []int
}

func newValencyAcc() *valencyAcc {
	return &valencyAcc{values: make(map[string]bool)}
}

// disagreeAt records the schedule of a disagreeing execution unless an
// earlier one is already recorded.
func (a *valencyAcc) disagreeAt(sched []int) {
	if !a.disagrees {
		a.disagrees = true
		a.disagreement = append([]int(nil), sched...)
	}
}

// report renders the accumulator as the public report.
func (a *valencyAcc) report() *ValencyReport {
	rep := &ValencyReport{
		Configs:              a.configs,
		Executions:           a.executions,
		Bivalent:             a.bivalent,
		Critical:             a.critical,
		Agreement:            !a.disagrees,
		DisagreementSchedule: a.disagreement,
	}
	for v := range a.values {
		rep.Values = append(rep.Values, v)
	}
	sort.Strings(rep.Values)
	return rep
}

// decisionValues is the set of values decided within one complete
// execution (outputs of StatusDone processes, rendered).
func decisionValues(res *sim.Result) map[string]bool {
	vals := make(map[string]bool)
	for i, st := range res.Status {
		if st == sim.StatusDone {
			vals[sim.Sprint(res.Outputs[i])] = true
		}
	}
	return vals
}

// errNondetValency wraps a choice demand: valency analysis is defined
// over deterministic objects only.
func errNondetValency(err error) error {
	return fmt.Errorf("modelcheck: valency analysis requires deterministic objects: %w", err)
}

// valencyHooks are the extension points the parallel engine needs: gate
// runs at every configuration (abort checks) and counted after every
// complete execution (budget enforcement). Either may be nil.
type valencyHooks struct {
	gate    func() error
	counted func() error
}

// valencyRec returns the set of decision values reachable from the
// configuration reached by sched, accumulating tree statistics into acc.
// It is the single recursion both AnalyzeValency and
// AnalyzeValencyParallel run, so their per-subtree numbers agree by
// construction. d reaches the configuration as in exploreDFS: carried
// from the parked parent for the first child, fresh for the others.
func valencyRec(d *runDriver, sched []int, carry bool, acc *valencyAcc, hooks valencyHooks) (map[string]bool, error) {
	if hooks.gate != nil {
		if err := hooks.gate(); err != nil {
			return nil, err
		}
	}
	d.reach(sched, nil, carry)
	if d.err != nil {
		var demand choiceDemand
		if asDemand(d.err, &demand) {
			return nil, errNondetValency(d.err)
		}
		return nil, d.err
	}
	acc.configs++
	if !d.parked {
		acc.executions++
		if hooks.counted != nil {
			if err := hooks.counted(); err != nil {
				return nil, err
			}
		}
		vals := decisionValues(d.res)
		if len(vals) > 1 {
			acc.disagreeAt(sched)
		}
		for v := range vals {
			acc.values[v] = true
		}
		return vals, nil
	}
	union := make(map[string]bool)
	allChildrenUnivalent := true
	enabled := d.enabled // the deeper runs park with enabled sets of their own
	for i, id := range enabled {
		child, err := valencyRec(d, appendStep(sched, id), i == 0, acc, hooks)
		if err != nil {
			return nil, err
		}
		if len(child) > 1 {
			allChildrenUnivalent = false
		}
		for v := range child {
			union[v] = true
		}
	}
	if len(union) > 1 {
		acc.bivalent++
		if allChildrenUnivalent {
			acc.critical++
		}
	}
	return union, nil
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
func AnalyzeValencyUnder(f Factory, wrap func(inner sim.Scheduler) sim.Scheduler, limit int) (*ValencyReport, error) {
	if limit <= 0 {
		limit = 1 << 20
	}
	d := newRunDriver(f, wrap)
	defer d.stop()
	acc := newValencyAcc()
	_, err := valencyRec(d, nil, false, acc, valencyHooks{counted: func() error {
		if acc.executions > limit {
			return errLimitExceeded(limit)
		}
		return nil
	}})
	if err != nil {
		return nil, err
	}
	return acc.report(), nil
}
