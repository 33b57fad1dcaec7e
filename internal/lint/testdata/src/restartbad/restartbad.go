// Package restartbad is a crash-restart adversary whose fault
// directives depend on everything injectionpurity forbids for
// sim.Fault-returning decision functions: the wall clock, the global
// random source, runtime introspection, and channel traffic — each one
// making a crash-restart schedule irreproducible from its seed.
package restartbad

import (
	"math/rand"
	"runtime"
	"time"

	"detobj/internal/sim"
)

// Adversary decides crashes from ambient state instead of its seed.
type Adversary struct {
	victim int
	ch     chan sim.Fault
}

// New returns the impure restart adversary.
func New(victim int) *Adversary {
	return &Adversary{victim: victim, ch: make(chan sim.Fault, 1)}
}

// Next implements sim.Scheduler.
func (a *Adversary) Next(v sim.View) int { return v.Enabled[0] }

// Faults implements sim.FaultInjector impurely.
func (a *Adversary) Faults(v sim.View) []sim.Fault {
	if time.Now().UnixNano()%2 == 0 && v.EnabledSet(a.victim) {
		return []sim.Fault{{Proc: a.victim, Kind: sim.FaultCrash}}
	}
	if rand.Intn(2) == 0 {
		return a.fromChan()
	}
	if runtime.NumGoroutine() > 8 {
		return []sim.Fault{{Proc: a.victim, Kind: sim.FaultRestart}}
	}
	return nil
}

// fromChan hides the channel dependence one call deep.
func (a *Adversary) fromChan() []sim.Fault {
	select {
	case f := <-a.ch:
		return []sim.Fault{f}
	default:
		return nil
	}
}
