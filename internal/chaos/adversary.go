package chaos

// Simulator-side adversaries. Each is a sim.Scheduler that wraps an
// inner scheduler (nil defaults to round-robin), perturbs which enabled
// process advances, and records every fault into a shared Report. All
// of them implement sim.Observer and forward observations inward, and
// forward sim.FaultInjector consultations inward the same way, so
// stacks compose: Instrument(NewStall(NewCrashRestart(...), ...), r).
//
// The package distinguishes three crash models, in increasing recovery
// strength:
//
//   - Crash-stop (CrashDuringOp here; sim.Crashing for the plain
//     variant): the paper's crash-failure adversary. A crashed process
//     simply never takes another step; its partial writes stay visible,
//     its pending invocation ends the run as StatusStopped, and no other
//     process can distinguish the crash from slowness.
//
//   - Amnesiac crash-restart (CrashRestart, RepeatedCrashRestart and
//     AdaptiveRestart, in restart.go): the individual-crash-restart
//     model of the recoverable-objects literature. The victim loses all
//     volatile state — program locals, its in-flight invocation, the
//     volatile half of sim.Recoverable objects — and re-enters from the
//     top of its program behind sim.Config.Recovery. These adversaries
//     issue real sim.Fault directives through the sim.FaultInjector
//     interface; the runtime applies them between steps and records them
//     in the trace, so crash-restart schedules replay exactly.
//
//   - Full-persistence recovery (CrashRecovery): the victim re-enters
//     with its id and entire local state intact and resumes from its
//     pending invocation — the strongest recovery model in the
//     recoverable-consensus literature. Because nothing is lost, a
//     crashed-and-recovered process is indistinguishable from a merely
//     slow one, which is why this adversary needs no fault directives:
//     it is expressible purely as a scheduling delay.
//
// The full-persistence and amnesiac models bracket the recoverable-
// consensus-number question (Ovens 2024, PAPERS.md): an object keeps its
// full-persistence power by construction, while its power under amnesiac
// restart depends on which half of its implementation state is durable —
// E20 (cmd/modelcheck) calibrates exactly this gap.

import (
	"fmt"
	"math/rand"

	"detobj/internal/sim"
)

// inner returns s, defaulting to round-robin.
func innerOf(s sim.Scheduler) sim.Scheduler {
	if s == nil {
		return sim.NewRoundRobin()
	}
	return s
}

// forwardObserve passes an observed event to s if it observes.
func forwardObserve(s sim.Scheduler, e sim.Event) {
	if o, ok := s.(sim.Observer); ok {
		o.Observe(e)
	}
}

// forwardFaults passes the fault consultation to s if it injects. Every
// wrapper adversary delegates through here so that a fault-issuing layer
// (restart.go) keeps its sim.FaultInjector channel when wrapped by
// Instrument, Stall or another adversary.
func forwardFaults(s sim.Scheduler, v sim.View) []sim.Fault {
	if fi, ok := s.(sim.FaultInjector); ok {
		return fi.Faults(v)
	}
	return nil
}

// withhold narrows a view to the processes not in dead and asks inner
// for the next step; it stops the run if everyone left is dead.
func withhold(inner sim.Scheduler, v sim.View, dead func(id int) bool) int {
	live := make([]int, 0, len(v.Enabled))
	for _, id := range v.Enabled {
		if !dead(id) {
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return sim.Stop
	}
	pick := inner.Next(sim.View{Step: v.Step, Enabled: live})
	if pick == sim.Stop {
		return sim.Stop
	}
	return pick
}

// CrashDuringOp kills one process in the middle of a logical operation:
// after the victim has issued BeginOp and then taken Depth base-object
// steps inside the operation, it never runs again. The object's partial
// state — whatever the victim already wrote — stays visible to every
// other process.
type CrashDuringOp struct {
	victim  int
	depth   int
	inner   sim.Scheduler
	report  *Report
	open    bool // victim has an open logical operation
	inOp    int  // base steps the victim took inside it
	armed   bool // crash condition met, not yet recorded
	crashed bool
}

// NewCrashDuringOp returns the crash-during-operation adversary for the
// given victim. depth is the number of base-object steps the victim may
// take inside its logical operation before dying; 0 kills it right
// after BeginOp.
func NewCrashDuringOp(inner sim.Scheduler, r *Report, victim, depth int) *CrashDuringOp {
	return &CrashDuringOp{victim: victim, depth: depth, inner: innerOf(inner), report: r}
}

// Faults implements sim.FaultInjector by delegation.
func (c *CrashDuringOp) Faults(v sim.View) []sim.Fault { return forwardFaults(c.inner, v) }

// Observe implements sim.Observer: it tracks the victim's operation
// structure and arms the crash once the victim is Depth steps deep.
func (c *CrashDuringOp) Observe(e sim.Event) {
	if e.Proc == c.victim && !c.crashed {
		switch e.Kind {
		case sim.EventCall:
			c.open = true
			c.inOp = 0
		case sim.EventReturn:
			// The operation finished before the scheduler could withhold
			// the victim (depth reached on its final base step); nothing
			// is left to crash inside.
			c.open = false
			c.armed = false
		case sim.EventStep:
			if c.open {
				c.inOp++
			}
		}
		if c.open && c.inOp >= c.depth {
			c.armed = true
		}
	}
	forwardObserve(c.inner, e)
}

// Next implements sim.Scheduler.
func (c *CrashDuringOp) Next(v sim.View) int {
	if c.armed && !c.crashed {
		c.crashed = true
		c.report.record(Injection{Step: v.Step, Proc: c.victim, Kind: "crash",
			Note: "mid-operation, partial writes visible"})
	}
	if !c.crashed {
		return c.inner.Next(v)
	}
	return withhold(c.inner, v, func(id int) bool { return id == c.victim })
}

// CrashRecovery crashes one process at a chosen step and lets it
// re-enter, with its id and full local state, after a recovery window.
// Between crash and recovery the process takes no steps; afterwards it
// resumes from its pending invocation.
//
// This is the *full-persistence* recovery model: every register of the
// crashed process — program counter, locals, the invocation it was about
// to issue — survives the crash, so recovery is pure scheduling (a
// withheld window) and no state is rebuilt. Contrast CrashRestart
// (restart.go), the *amnesiac* model, where the victim loses all
// volatile state and re-runs its program from the top behind a recovery
// procedure. An algorithm correct under CrashRecovery may still lose
// power under CrashRestart; E20 measures that gap.
type CrashRecovery struct {
	victim    int
	crashAt   int // global step at which the crash fires
	window    int // steps withheld before recovery
	inner     sim.Scheduler
	report    *Report
	crashed   bool
	recovered bool
}

// NewCrashRecovery returns the crash-recovery adversary: victim crashes
// at step crashAt and recovers window steps later.
func NewCrashRecovery(inner sim.Scheduler, r *Report, victim, crashAt, window int) *CrashRecovery {
	return &CrashRecovery{victim: victim, crashAt: crashAt, window: window, inner: innerOf(inner), report: r}
}

// Observe implements sim.Observer.
func (c *CrashRecovery) Observe(e sim.Event) { forwardObserve(c.inner, e) }

// Faults implements sim.FaultInjector by delegation.
func (c *CrashRecovery) Faults(v sim.View) []sim.Fault { return forwardFaults(c.inner, v) }

// Next implements sim.Scheduler.
func (c *CrashRecovery) Next(v sim.View) int {
	if !c.crashed && v.Step >= c.crashAt {
		c.crashed = true
		c.report.record(Injection{Step: v.Step, Proc: c.victim, Kind: "crash",
			Note: "recoverable"})
	}
	if c.crashed && !c.recovered && v.Step >= c.crashAt+c.window {
		c.recovered = true
		c.report.record(Injection{Step: v.Step, Proc: c.victim, Kind: "recover",
			Note: "re-entered with full local state"})
	}
	if c.crashed && !c.recovered {
		pick := withhold(c.inner, v, func(id int) bool { return id == c.victim })
		if pick != sim.Stop {
			return pick
		}
		// Withholding the victim would deadlock the lockstep run (every
		// other process is finished or itself withheld). In the
		// asynchronous model a recovering process must eventually be
		// scheduled, so the window truncates here.
		c.recovered = true
		c.report.record(Injection{Step: v.Step, Proc: c.victim, Kind: "recover",
			Note: "window truncated: no other live process"})
		return c.inner.Next(v)
	}
	return c.inner.Next(v)
}

// Stall starves one process for a configurable window of scheduler
// steps: while the window is open the victim, though enabled, is never
// chosen. Unlike a crash the starvation ends, so wait-free code must
// both tolerate the absence and let the victim finish afterwards.
type Stall struct {
	victim int
	from   int // first withheld step
	window int // number of withheld steps
	inner  sim.Scheduler
	report *Report
	run    int // current consecutive withheld-while-enabled streak
	logged bool
}

// NewStall returns the step-stall adversary: victim is starved during
// steps [from, from+window).
func NewStall(inner sim.Scheduler, r *Report, victim, from, window int) *Stall {
	return &Stall{victim: victim, from: from, window: window, inner: innerOf(inner), report: r}
}

// Observe implements sim.Observer.
func (s *Stall) Observe(e sim.Event) { forwardObserve(s.inner, e) }

// Faults implements sim.FaultInjector by delegation.
func (s *Stall) Faults(v sim.View) []sim.Fault { return forwardFaults(s.inner, v) }

// Next implements sim.Scheduler.
func (s *Stall) Next(v sim.View) int {
	active := v.Step >= s.from && v.Step < s.from+s.window
	if !active {
		s.run = 0
		return s.inner.Next(v)
	}
	pick := withhold(s.inner, v, func(id int) bool { return id == s.victim })
	if pick == sim.Stop && v.EnabledSet(s.victim) {
		// Starving the victim would deadlock the lockstep run; a stall
		// (unlike a crash) is bounded, so the window truncates and the
		// victim runs.
		s.window = 0
		return s.inner.Next(v)
	}
	if v.EnabledSet(s.victim) {
		if !s.logged {
			s.logged = true
			s.report.record(Injection{Step: v.Step, Proc: s.victim, Kind: "stall",
				Note: fmt.Sprintf("window %d steps", s.window)})
		}
		s.run++
		s.report.stall(s.run)
	}
	return pick
}

// Adaptive is a seeded, history-driven adversary. Watching the run
// through the Observer tap, it knows how many steps each process has
// taken and alternates between the classic attack modes: running the
// leader solo (the paper's solo-run arguments), starving it in favour
// of the laggard, uniform noise, and short bursts that keep one process
// in the critical window of an operation. All choices draw from its own
// seeded source, so a (seed, configuration) pair is one execution.
type Adaptive struct {
	src    sim.Source
	rng    rand.Rand
	report *Report
	steps  []int
	last   int
	burst  int
}

// NewAdaptive returns the adaptive adversary with the given seed. Its
// source and rand.Rand live in the adversary, as in sim.NewRandom.
func NewAdaptive(seed int64, r *Report) *Adaptive {
	a := &Adaptive{report: r, last: -1}
	a.src.Seed(seed)
	a.rng = *rand.New(&a.src)
	return a
}

// Observe implements sim.Observer: it maintains the per-process step
// counts that drive leader/laggard targeting.
func (a *Adaptive) Observe(e sim.Event) {
	if e.Kind != sim.EventStep {
		return
	}
	for len(a.steps) <= e.Proc {
		a.steps = append(a.steps, 0)
	}
	a.steps[e.Proc]++
}

// count returns process id's observed step count.
func (a *Adaptive) count(id int) int {
	if id < len(a.steps) {
		return a.steps[id]
	}
	return 0
}

// Next implements sim.Scheduler.
func (a *Adaptive) Next(v sim.View) int {
	if a.burst > 0 && v.EnabledSet(a.last) {
		a.burst--
		return a.last
	}
	pick := v.Enabled[0]
	switch a.rng.Intn(4) {
	case 0: // leader solo: the most advanced enabled process
		for _, id := range v.Enabled {
			if a.count(id) > a.count(pick) {
				pick = id
			}
		}
	case 1: // laggard: the least advanced enabled process
		for _, id := range v.Enabled {
			if a.count(id) < a.count(pick) {
				pick = id
			}
		}
	case 2: // uniform noise
		pick = v.Enabled[a.rng.Intn(len(v.Enabled))]
	case 3: // burst: pin one process for a short stretch
		pick = v.Enabled[a.rng.Intn(len(v.Enabled))]
		a.burst = a.rng.Intn(8)
	}
	a.last = pick
	return pick
}

// instrumented is the outermost layer of an adversary stack: it counts
// every scheduled step into the report's per-process histogram.
type instrumented struct {
	inner  sim.Scheduler
	report *Report
}

// Instrument wraps sched so that every step lands in r's histogram.
// Wrap last, outermost.
func Instrument(sched sim.Scheduler, r *Report) sim.Scheduler {
	return &instrumented{inner: innerOf(sched), report: r}
}

// Observe implements sim.Observer.
func (in *instrumented) Observe(e sim.Event) {
	if e.Kind == sim.EventStep {
		in.report.step(e.Proc)
	}
	forwardObserve(in.inner, e)
}

// Next implements sim.Scheduler.
func (in *instrumented) Next(v sim.View) int { return in.inner.Next(v) }

// Faults implements sim.FaultInjector by delegation.
func (in *instrumented) Faults(v sim.View) []sim.Fault { return forwardFaults(in.inner, v) }
