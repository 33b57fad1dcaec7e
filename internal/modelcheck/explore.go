// Package modelcheck verifies the paper's claims over ALL executions
// rather than sampled ones. It provides three engines:
//
//   - Explore: exhaustive enumeration of every execution of a
//     configuration — every interleaving chosen by the scheduler and, for
//     nondeterministic objects, every internal choice. Used to verify the
//     algorithms of §4 completely for small parameters and to exhibit the
//     disagreement executions of broken protocols.
//
//   - AnalyzeValency: the FLP/Herlihy valency analysis (bivalent, univalent
//     and critical configurations) of a protocol's execution tree (§6).
//
//   - CheckIndistinguishability: the mechanization of Lemma 38's
//     critical-configuration case analysis — for every reachable object
//     state and every pair of pending operations, at least one of the two
//     processes must be unable to distinguish the execution orders. WRN_k
//     with k ≥ 3 passes; SWAP (= WRN_2), test-and-set and consensus cells
//     fail, which is exactly why they have consensus number ≥ 2.
package modelcheck

import (
	"errors"
	"fmt"

	"detobj/internal/sim"
)

// ErrLimit is returned when exploration exceeds its execution budget.
var ErrLimit = errors.New("modelcheck: execution limit exceeded")

// ErrScriptDivergence is returned when a replayed choice script does not
// fit the choices the objects actually demand: script[pos] falls outside
// the demanded [0, n) range. The scripted tree and the replayed tree
// have diverged — possible when an adversary wrap (AnalyzeValencyUnder)
// makes an object's choice demands schedule-dependent — and silently
// reducing the value modulo n would alias two distinct branches, so the
// engines fail loudly instead.
var ErrScriptDivergence = errors.New("modelcheck: replayed choice script diverged from the object's demand")

// Factory produces a fresh configuration (fresh objects, same programs)
// for every run the explorer starts from the root. Scheduler and Choice
// are overridden by the explorer.
type Factory func() sim.Config

// Execution is one complete run discovered by Explore.
type Execution struct {
	// Schedule is the exact sequence of process ids that ran.
	Schedule []int
	// Choices is the sequence of values consumed by nondeterministic
	// objects (empty for deterministic configurations).
	Choices []int
	// Result is the run's outcome.
	Result *sim.Result
}

// choiceDemand is panicked by scriptSource when a nondeterministic object
// requests a choice beyond the script; the explorer catches it via
// sim.ObjectPanicError and branches.
type choiceDemand struct {
	n int
}

// scriptDivergence is panicked by scriptSource when a replayed script
// value does not fit the demanded range; decodeRunError converts it
// into an error wrapping ErrScriptDivergence.
type scriptDivergence struct {
	pos, value, n int
}

// scriptSource replays a fixed choice script.
type scriptSource struct {
	script []int
	pos    int
}

// reset re-arms the source to replay script from its start, reusing the
// receiver (runDriver keeps one source for all its runs).
func (s *scriptSource) reset(script []int) {
	s.script = script
	s.pos = 0
}

// Intn implements sim.RandSource. The script value must lie in the
// demanded [0, n) range exactly as recorded: the explorers only ever
// script values they were asked for, so an out-of-range value means the
// replay diverged from the tree that produced the script.
func (s *scriptSource) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("modelcheck: Intn(%d)", n))
	}
	if s.pos >= len(s.script) {
		panic(choiceDemand{n: n})
	}
	v := s.script[s.pos]
	if v < 0 || v >= n {
		panic(scriptDivergence{pos: s.pos, value: v, n: n})
	}
	s.pos++
	return v
}

// Explore enumerates every execution of the configuration: all schedules,
// and for nondeterministic objects all internal choices. visit is called
// once per complete execution; returning a non-nil error aborts the
// exploration and is returned to the caller. limit bounds the number of
// complete executions (0 means 1<<20). Explore reports the number of
// executions visited.
func Explore(f Factory, limit int, visit func(e Execution) error) (int, error) {
	if limit <= 0 {
		limit = 1 << 20
	}
	d := newRunDriver(f, nil)
	defer d.stop()
	count := 0
	err := exploreDFS(d, nil, nil, false, func(e Execution) error {
		// The budget check runs before the count moves, so the returned
		// count is exactly the number of visit calls (see
		// TestExploreLimitBoundary).
		if count == limit {
			return errLimitExceeded(limit)
		}
		count++
		return visit(e)
	})
	return count, err
}

// errLimitExceeded builds the budget error every engine returns.
func errLimitExceeded(limit int) error {
	return fmt.Errorf("%w (%d executions)", ErrLimit, limit)
}

// exploreDFS enumerates, in depth-first lexicographic order, every
// complete execution reachable from the (sched, choices) prefix and
// calls emit once per execution. The branching discipline — choice
// values 0..n−1 before deeper schedules, enabled ids in increasing
// order — is THE canonical exploration order.
//
// d reaches the node as runDriver.reach says: the first child of a
// parked node carries its parent's run one step further (carry), while
// later siblings and choice branches start a fresh run of their prefix.
// A carried run ends at a leaf, a choice demand or an error before the
// recursion returns, so the next sibling never finds it still parked.
func exploreDFS(d *runDriver, sched, choices []int, carry bool, emit func(e Execution) error) error {
	d.reach(sched, choices, carry)
	if d.err != nil {
		var demand choiceDemand
		if asDemand(d.err, &demand) {
			for c := 0; c < demand.n; c++ {
				if err := exploreDFS(d, sched, appendStep(choices, c), false, emit); err != nil {
					return err
				}
			}
			return nil
		}
		return d.err
	}
	if !d.parked {
		return emit(Execution{
			Schedule: append([]int(nil), sched...),
			Choices:  append([]int(nil), choices...),
			Result:   d.res,
		})
	}
	enabled := d.enabled // the deeper runs park with enabled sets of their own
	for i, id := range enabled {
		if err := exploreDFS(d, appendStep(sched, id), choices, i == 0, emit); err != nil {
			return err
		}
	}
	return nil
}

// appendStep extends a prefix without aliasing the parent's backing
// array (siblings share the parent slice, so plain append would race).
func appendStep(prefix []int, v int) []int {
	return append(prefix[:len(prefix):len(prefix)], v)
}

// decodeRunError converts the control-signal panics the explorers plant
// in their scripted runs back into typed errors; other errors pass
// through untouched.
func decodeRunError(err error) error {
	var ope *sim.ObjectPanicError
	if !errors.As(err, &ope) {
		return err
	}
	if d, ok := ope.Value.(scriptDivergence); ok {
		return fmt.Errorf("%w: script[%d] = %d but object %q demanded Intn(%d)",
			ErrScriptDivergence, d.pos, d.value, ope.Object, d.n)
	}
	return err
}

// asDemand reports whether err is an object panic carrying a choiceDemand.
func asDemand(err error, out *choiceDemand) bool {
	var ope *sim.ObjectPanicError
	if !errors.As(err, &ope) {
		return false
	}
	d, ok := ope.Value.(choiceDemand)
	if !ok {
		return false
	}
	*out = d
	return true
}

// VerifyAll explores every execution and checks each complete result with
// check; it returns the number of executions and the first violation.
func VerifyAll(f Factory, limit int, check func(res *sim.Result) error) (int, error) {
	return Explore(f, limit, func(e Execution) error {
		if err := check(e.Result); err != nil {
			return fmt.Errorf("schedule %v choices %v: %w", e.Schedule, e.Choices, err)
		}
		return nil
	})
}

// DecisionVectors explores every execution and returns the set of distinct
// decided-output vectors, rendered as strings, mapped to a sample
// execution schedule.
func DecisionVectors(f Factory, limit int) (map[string][]int, error) {
	out := make(map[string][]int)
	_, err := Explore(f, limit, func(e Execution) error {
		key := renderValues(e.Result.Outputs)
		if _, ok := out[key]; !ok {
			out[key] = e.Schedule
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
