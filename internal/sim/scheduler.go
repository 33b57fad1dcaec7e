package sim

import "math/rand"

// Stop is the sentinel a Scheduler returns to halt the run. All processes
// that still have pending invocations are marked StatusStopped and the run
// ends with whatever outputs have been produced so far. The model checker
// uses this to examine configurations in the middle of the execution tree.
const Stop = -1

// View is the information a Scheduler sees when choosing the next process
// to advance. Schedulers observe only which processes are enabled, never
// object state or pending operations: the adversary is strong (it controls
// timing completely) but it is the standard asynchronous adversary, not an
// omniscient one. A View's slices alias buffers the runtime rewrites every
// scheduling round, so a scheduler that keeps them past the call must copy
// them.
type View struct {
	// Step is the index of the step about to be scheduled.
	Step int
	// Enabled lists, in increasing order, the ids of processes that have a
	// pending invocation. It is never empty when Next is called and must
	// not be mutated.
	Enabled []int
	// Crashed lists, in increasing order, the ids of processes that were
	// crashed by a fault directive and not yet restarted (candidates for
	// FaultRestart). It is populated only when the run's scheduler
	// implements FaultInjector, and must not be mutated.
	Crashed []int
}

// EnabledSet reports whether process id is enabled in the view.
func (v View) EnabledSet(id int) bool {
	for _, e := range v.Enabled {
		if e == id {
			return true
		}
	}
	return false
}

// CrashedSet reports whether process id is crashed (and restartable) in the
// view.
func (v View) CrashedSet(id int) bool {
	for _, e := range v.Crashed {
		if e == id {
			return true
		}
	}
	return false
}

// Scheduler chooses which enabled process takes the next atomic step.
// Implementations must return either Stop or an id drawn from v.Enabled.
// A Scheduler instance belongs to one run: implementations may keep
// per-run state and are driven without locking (see the package
// comment's "Concurrency contract").
type Scheduler interface {
	Next(v View) int
}

// Observer is an optional interface for schedulers. A scheduler that
// implements it is shown every event the runtime records (steps,
// BeginOp/EndOp marks, and crash/restart events), in order, before its
// next Next call. This keeps
// the adversary within the standard asynchronous model — it observes
// only the public history of invocations and responses, never private
// object state — while letting it react to the *structure* of the
// history: the chaos adversaries use it to kill a process after it has
// begun a logical operation but before that operation responds.
// Observation is independent of Config.DisableTrace.
type Observer interface {
	Observe(e Event)
}

// Func adapts a plain function to the Scheduler interface.
type Func func(v View) int

// Next implements Scheduler.
func (f Func) Next(v View) int { return f(v) }

// RoundRobin schedules enabled processes cyclically, which yields the
// maximally interleaved "fair" execution. The zero value is ready to use.
type RoundRobin struct {
	last int
	init bool
}

// NewRoundRobin returns a fresh round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Next implements Scheduler: it picks the smallest enabled id strictly
// greater than the previously chosen one, wrapping around.
func (r *RoundRobin) Next(v View) int {
	if !r.init {
		r.init = true
		r.last = v.Enabled[0]
		return r.last
	}
	for _, e := range v.Enabled {
		if e > r.last {
			r.last = e
			return e
		}
	}
	r.last = v.Enabled[0]
	return r.last
}

// Random schedules uniformly at random among enabled processes using its
// own deterministic source, so a (seed, configuration) pair identifies a
// unique execution.
type Random struct {
	src Source
	rng rand.Rand
}

// NewRandom returns a random scheduler with the given seed. Its draws are
// those of rand.New(rand.NewSource(seed)), but its source is a Source, so
// seeding it is O(1) and allocates no register. The source and the
// rand.Rand live in the scheduler, which is its one allocation; rand.New
// inlines, and its result is copied.
func NewRandom(seed int64) *Random {
	r := new(Random)
	r.src.Seed(seed)
	r.rng = *rand.New(&r.src)
	return r
}

// Next implements Scheduler.
func (r *Random) Next(v View) int {
	return v.Enabled[r.rng.Intn(len(v.Enabled))]
}

// Fixed replays a predetermined schedule: a sequence of process ids, one
// per step. Entries naming processes that are no longer enabled are
// skipped. When the schedule is exhausted the Fallback scheduler takes
// over; a nil Fallback halts the run (returns Stop), which is how the
// model checker inspects intermediate configurations.
type Fixed struct {
	Order    []int
	Fallback Scheduler

	pos int
}

// NewFixed returns a scheduler that replays order and then stops.
func NewFixed(order ...int) *Fixed { return &Fixed{Order: order} }

// Reset re-arms the scheduler to replay order from its start, reusing
// the receiver. The model checker's run driver starts thousands of
// schedule prefixes through one Fixed instance per engine call.
func (f *Fixed) Reset(order []int) {
	f.Order = order
	f.pos = 0
}

// Next implements Scheduler.
func (f *Fixed) Next(v View) int {
	for f.pos < len(f.Order) {
		id := f.Order[f.pos]
		f.pos++
		if v.EnabledSet(id) {
			return id
		}
	}
	if f.Fallback != nil {
		return f.Fallback.Next(v)
	}
	return Stop
}

// Priority always advances the enabled process that appears earliest in its
// preference order; processes absent from the order come last in id order.
// It models the adversary that runs one process solo as long as possible —
// the schedule used throughout the paper's solo-run arguments.
type Priority []int

// Next implements Scheduler.
func (p Priority) Next(v View) int {
	for _, id := range p {
		if v.EnabledSet(id) {
			return id
		}
	}
	return v.Enabled[0]
}

// Crashing wraps a scheduler and permanently withholds steps from the
// processes in Crashed — the crash-failure adversary. A wait-free
// algorithm must let every other process finish regardless of which
// subset crashes; crashed processes end the run with StatusStopped (their
// pending invocations are never granted). If every enabled process is
// crashed, the run stops.
type Crashing struct {
	Crashed map[int]bool
	Inner   Scheduler
}

// NewCrashing returns a scheduler that never runs the given processes and
// otherwise defers to inner (round-robin if nil).
func NewCrashing(inner Scheduler, crashed ...int) *Crashing {
	set := make(map[int]bool, len(crashed))
	for _, id := range crashed {
		set[id] = true
	}
	if inner == nil {
		inner = NewRoundRobin()
	}
	return &Crashing{Crashed: set, Inner: inner}
}

// Next implements Scheduler.
func (c *Crashing) Next(v View) int {
	live := make([]int, 0, len(v.Enabled))
	for _, id := range v.Enabled {
		if !c.Crashed[id] {
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return Stop
	}
	pick := c.Inner.Next(View{Step: v.Step, Enabled: live})
	if pick == Stop {
		return Stop
	}
	return pick
}
