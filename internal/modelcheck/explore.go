// Package modelcheck verifies the paper's claims over ALL executions
// rather than sampled ones. It provides two engines:
//
//   - The reducer (reduce.go), one depth-first search over the
//     execution tree. Its exhaustive mode runs Explore, which enumerates
//     every interleaving and every internal choice of nondeterministic
//     objects, and AnalyzeValency, the FLP/Herlihy valency analysis
//     (bivalent, univalent and critical configurations) of §6.
//     ExploreReduced and AnalyzeValencyReduced add symmetry quotienting
//     and a transposition table.
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

// Factory produces a fresh configuration (fresh objects, same programs).
// When every object has a Reset method, which returns it in place to
// its constructed state, the engine calls f once per engine call and
// resets the objects before it starts its run from the root and before
// each rewind, reusing the programs as the replay contract allows;
// otherwise it calls f once more per start and per rewind, and a rewind
// adopts only the new configuration's objects. The engine overrides
// Scheduler and Choice, sets OnStep when the transposition table is on,
// and sets DisableTrace unless the call has a visit callback (so
// VerifyReplay checks only traced runs, at their leaves).
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
// receiver (the reducer keeps one source for all its runs and rewinds).
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
//
// Explore is the reducer's exhaustive mode: it visits in depth-first
// lexicographic order (choice values 0..n−1 before deeper schedules,
// enabled ids in increasing order), and each visited Execution, trace
// included, is the caller's to keep.
func Explore(f Factory, limit int, visit func(e Execution) error) (int, error) {
	red, err := newReducer(f, Reduced{NoDedup: true}, limit)
	if err != nil {
		return 0, err
	}
	// Executions counts exactly the visit calls (TestExploreLimitBoundary).
	rep, err := red.explore(func(e Execution, _ int) error { return visit(e) })
	return rep.Executions, err
}

// errLimitExceeded builds the budget error every engine returns.
func errLimitExceeded(limit int) error {
	return fmt.Errorf("%w (%d executions)", ErrLimit, limit)
}

// decodeRunError converts the control-signal panics the explorers plant
// in their scripted runs back into typed errors as the error leaves the
// engine; other errors, nil included, pass through untouched.
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
