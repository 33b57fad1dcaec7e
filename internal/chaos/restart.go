package chaos

// Amnesiac crash-restart adversaries. Unlike the schedule-only
// adversaries in adversary.go, these issue real sim.Fault directives
// through the sim.FaultInjector interface: a FaultCrash wipes the
// victim's volatile state (program locals, in-flight invocation, the
// volatile half of sim.Recoverable objects) and a later FaultRestart
// re-runs the victim's program from the top behind sim.Config.Recovery.
// See the model comparison in adversary.go's header.
//
// All three stay inside the deterministic lockstep contract: directives
// are pure functions of the observed history and the views seen so far,
// so a (seed, configuration) pair identifies one execution and
// sim.Config.VerifyReplay re-checks it. Each records its faults into the
// shared Report under Kind "crash" / "restart" (bumping Restarts(), not
// Recoveries()).
//
// A restart window truncates the same way CrashRecovery's does: if the
// victim is crashed and no other process is enabled, withholding the
// restart any longer would deadlock the lockstep run, so the restart
// fires immediately and the truncation is noted in the fault log.

import (
	"fmt"
	"math/rand"

	"detobj/internal/sim"
)

// CrashRestart crashes one process at a chosen step and restarts it,
// amnesiacally, window steps later. The crash fires at the first
// scheduling round at or after crashAt in which the victim has a pending
// invocation (a process that already finished or hung is never crashed).
type CrashRestart struct {
	victim  int
	crashAt int // global step at which the crash fires
	window  int // steps withheld before the restart
	inner   sim.Scheduler
	report  *Report

	crashed   bool
	restarted bool
	crashStep int
}

// NewCrashRestart returns the single-crash amnesiac-restart adversary:
// victim crashes at step crashAt and restarts window steps later.
func NewCrashRestart(inner sim.Scheduler, r *Report, victim, crashAt, window int) *CrashRestart {
	return &CrashRestart{victim: victim, crashAt: crashAt, window: window, inner: innerOf(inner), report: r}
}

// Observe implements sim.Observer.
func (c *CrashRestart) Observe(e sim.Event) { forwardObserve(c.inner, e) }

// Next implements sim.Scheduler.
func (c *CrashRestart) Next(v sim.View) int { return c.inner.Next(v) }

// Faults implements sim.FaultInjector.
func (c *CrashRestart) Faults(v sim.View) []sim.Fault {
	if !c.crashed {
		if v.Step >= c.crashAt && v.EnabledSet(c.victim) {
			c.crashed = true
			c.crashStep = v.Step
			c.report.record(Injection{Step: v.Step, Proc: c.victim, Kind: "crash",
				Note: "amnesiac: volatile state lost"})
			return []sim.Fault{{Proc: c.victim, Kind: sim.FaultCrash}}
		}
		return forwardFaults(c.inner, v)
	}
	if !c.restarted && v.CrashedSet(c.victim) {
		if v.Step >= c.crashStep+c.window {
			c.restarted = true
			c.report.record(Injection{Step: v.Step, Proc: c.victim, Kind: "restart",
				Note: "re-ran from the top after recovery"})
			return []sim.Fault{{Proc: c.victim, Kind: sim.FaultRestart}}
		}
		if len(v.Enabled) == 0 {
			c.restarted = true
			c.report.record(Injection{Step: v.Step, Proc: c.victim, Kind: "restart",
				Note: "window truncated: no other live process"})
			return []sim.Fault{{Proc: c.victim, Kind: sim.FaultRestart}}
		}
	}
	return forwardFaults(c.inner, v)
}

// RepeatedCrashRestart crashes the same victim over and over: each time
// the victim has taken depth base-object steps since its last restart it
// is crashed again, up to times crashes in total, each followed by an
// amnesiac restart after window steps. This is the adversary that
// punishes recovery procedures which redo non-idempotent work — a victim
// that makes no durable progress per incarnation never escapes it.
type RepeatedCrashRestart struct {
	victim int
	depth  int // victim steps between restart and the next crash
	window int // steps withheld before each restart
	times  int // total crash budget
	inner  sim.Scheduler
	report *Report

	sinceRestart int // victim steps observed since its last restart
	crashes      int
	crashed      bool
	crashStep    int
}

// NewRepeatedCrashRestart returns the repeated amnesiac-restart
// adversary: victim is crashed after every depth of its own steps,
// restarted window steps later, times crashes in total.
func NewRepeatedCrashRestart(inner sim.Scheduler, r *Report, victim, depth, window, times int) *RepeatedCrashRestart {
	return &RepeatedCrashRestart{victim: victim, depth: depth, window: window, times: times,
		inner: innerOf(inner), report: r}
}

// Observe implements sim.Observer: it counts the victim's steps within
// its current incarnation.
func (c *RepeatedCrashRestart) Observe(e sim.Event) {
	if e.Proc == c.victim {
		switch e.Kind {
		case sim.EventStep:
			c.sinceRestart++
		case sim.EventRestart:
			c.sinceRestart = 0
		}
	}
	forwardObserve(c.inner, e)
}

// Next implements sim.Scheduler.
func (c *RepeatedCrashRestart) Next(v sim.View) int { return c.inner.Next(v) }

// Faults implements sim.FaultInjector.
func (c *RepeatedCrashRestart) Faults(v sim.View) []sim.Fault {
	if !c.crashed {
		if c.crashes < c.times && c.sinceRestart >= c.depth && v.EnabledSet(c.victim) {
			c.crashed = true
			c.crashes++
			c.crashStep = v.Step
			c.report.record(Injection{Step: v.Step, Proc: c.victim, Kind: "crash",
				Note: fmt.Sprintf("amnesiac, crash %d of %d", c.crashes, c.times)})
			return []sim.Fault{{Proc: c.victim, Kind: sim.FaultCrash}}
		}
		return forwardFaults(c.inner, v)
	}
	if v.CrashedSet(c.victim) {
		if v.Step >= c.crashStep+c.window {
			c.crashed = false
			c.report.record(Injection{Step: v.Step, Proc: c.victim, Kind: "restart",
				Note: "re-ran from the top after recovery"})
			return []sim.Fault{{Proc: c.victim, Kind: sim.FaultRestart}}
		}
		if len(v.Enabled) == 0 {
			c.crashed = false
			c.report.record(Injection{Step: v.Step, Proc: c.victim, Kind: "restart",
				Note: "window truncated: no other live process"})
			return []sim.Fault{{Proc: c.victim, Kind: sim.FaultRestart}}
		}
	}
	return forwardFaults(c.inner, v)
}

// AdaptiveRestart is the seeded, history-driven amnesiac adversary.
// Watching the run through the Observer tap, it arms a crash with a
// seeded coin toss each time any process begins a logical operation
// (Ctx.BeginOp), fires once the process is a seeded number of base steps
// inside that operation — the window in which volatile state is most
// valuable — and restarts it after a seeded window. Up to maxCrashes
// crashes are issued across all processes; crashed processes are always
// restarted eventually, so the adversary never strands the run.
type AdaptiveRestart struct {
	src        sim.Source
	rng        rand.Rand
	inner      sim.Scheduler
	report     *Report
	maxCrashes int

	inOp      []int // per proc: -1 no open op, else base steps inside it
	armDepth  []int // per proc: -1 unarmed, else in-op depth that triggers the crash
	crashStep []int // per proc: -1 not crashed, else step of the crash
	window    []int // per proc: restart window for the current crash
	crashes   int
}

// NewAdaptiveRestart returns the adaptive amnesiac-restart adversary
// with the given seed and total crash budget. Its source and rand.Rand
// live in the adversary, as in sim.NewRandom.
func NewAdaptiveRestart(inner sim.Scheduler, r *Report, seed int64, maxCrashes int) *AdaptiveRestart {
	a := &AdaptiveRestart{
		inner:      innerOf(inner),
		report:     r,
		maxCrashes: maxCrashes,
	}
	a.src.Seed(seed)
	a.rng = *rand.New(&a.src)
	return a
}

// grow extends the per-process tracking slices to cover id.
func (a *AdaptiveRestart) grow(id int) {
	for len(a.inOp) <= id {
		a.inOp = append(a.inOp, -1)
		a.armDepth = append(a.armDepth, -1)
		a.crashStep = append(a.crashStep, -1)
		a.window = append(a.window, 0)
	}
}

// Observe implements sim.Observer: it tracks operation structure per
// process and draws the arming decisions.
func (a *AdaptiveRestart) Observe(e sim.Event) {
	a.grow(e.Proc)
	switch e.Kind {
	case sim.EventCall:
		a.inOp[e.Proc] = 0
		a.armDepth[e.Proc] = -1
		if a.crashes < a.maxCrashes && a.rng.Intn(2) == 0 {
			a.armDepth[e.Proc] = a.rng.Intn(3)
		}
	case sim.EventReturn:
		a.inOp[e.Proc] = -1
		a.armDepth[e.Proc] = -1
	case sim.EventStep:
		if a.inOp[e.Proc] >= 0 {
			a.inOp[e.Proc]++
		}
	case sim.EventCrash, sim.EventRestart:
		// The open operation died with the incarnation (whether we or an
		// inner layer issued the fault); a restarted process re-announces
		// with a fresh BeginOp.
		a.inOp[e.Proc] = -1
		a.armDepth[e.Proc] = -1
	}
	forwardObserve(a.inner, e)
}

// Next implements sim.Scheduler.
func (a *AdaptiveRestart) Next(v sim.View) int { return a.inner.Next(v) }

// Faults implements sim.FaultInjector: due restarts first (lowest id),
// then at most one armed crash per round.
func (a *AdaptiveRestart) Faults(v sim.View) []sim.Fault {
	for _, id := range v.Crashed {
		a.grow(id)
		if a.crashStep[id] < 0 {
			continue // crashed by an inner layer, not ours to restart
		}
		if v.Step >= a.crashStep[id]+a.window[id] || len(v.Enabled) == 0 {
			note := "re-ran from the top after recovery"
			if len(v.Enabled) == 0 && v.Step < a.crashStep[id]+a.window[id] {
				note = "window truncated: no other live process"
			}
			a.crashStep[id] = -1
			a.report.record(Injection{Step: v.Step, Proc: id, Kind: "restart", Note: note})
			return []sim.Fault{{Proc: id, Kind: sim.FaultRestart}}
		}
	}
	if a.crashes < a.maxCrashes {
		for _, id := range v.Enabled {
			a.grow(id)
			if a.armDepth[id] >= 0 && a.inOp[id] >= a.armDepth[id] {
				a.crashes++
				a.armDepth[id] = -1
				a.crashStep[id] = v.Step
				a.window[id] = a.rng.Intn(6)
				a.report.record(Injection{Step: v.Step, Proc: id, Kind: "crash",
					Note: "amnesiac, mid-operation"})
				return []sim.Fault{{Proc: id, Kind: sim.FaultCrash}}
			}
		}
	}
	return forwardFaults(a.inner, v)
}
