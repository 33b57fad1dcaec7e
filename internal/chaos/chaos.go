// Package chaos is the repository's deterministic fault-injection
// layer. The paper's objects are *defined* by their behaviour under an
// adversary — WRN_k must stay safe when processes crash mid-operation
// and must hang (not err) on exhaustion — so testing them means
// supplying adversaries systematically, not hoping the scheduler
// stumbles into one.
//
// It provides composable adversary schedulers for the simulator
// (internal/sim) — crash-during-operation, full-persistence
// crash-recovery, amnesiac crash-restart (single, repeated and adaptive,
// issuing real sim.Fault directives), step-stall starvation and an
// adaptive, history-driven adversary — that wrap any inner scheduler and
// stay fully deterministic: a (seed, configuration) pair identifies one
// execution, replay-verified by sim.Config.VerifyReplay. See adversary.go
// for the three crash models and how they differ, and bounded.go for the
// one sanctioned crossing of the hang boundary.
//
// Every chaos run records into a Report — crash, recovery and restart
// counts, the longest stall, a per-process step histogram and the full
// injected-fault log — so a failure reproduces from a single seed.
// Recoveries() counts full-persistence re-entries, Restarts() counts
// amnesiac re-entries; the two are never conflated.
package chaos

import (
	"fmt"
	"strings"
	"sync"
)

// Injection is one recorded fault.
type Injection struct {
	// Step is the scheduler step at which the fault fired.
	Step int
	// Proc is the process the fault targeted.
	Proc int
	// Kind names the fault: "crash", "recover" (full-persistence
	// re-entry), "restart" (amnesiac re-entry) or "stall".
	Kind string
	// Note carries fault-specific detail (e.g. a stall window).
	Note string
}

// String renders the injection as one log line.
func (i Injection) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "step %d: %s P%d", i.Step, i.Kind, i.Proc)
	if i.Note != "" {
		fmt.Fprintf(&b, " (%s)", i.Note)
	}
	return b.String()
}

// Report is the structured outcome of a chaos run. Adversaries fill it
// deterministically. A Report is safe for concurrent recording.
type Report struct {
	// Seed identifies the run; re-running with the same seed and
	// configuration reproduces the same simulator report byte for byte.
	Seed int64

	mu sync.Mutex
	// crashes, recoveries and restarts count the respective injected
	// faults; recoveries are full-persistence re-entries, restarts are
	// amnesiac re-entries.
	crashes, recoveries, restarts int
	// maxStall is the longest observed consecutive starvation of an
	// enabled process, in scheduler steps.
	maxStall int
	// stepHist counts scheduled steps per process id.
	stepHist []int
	// injections is the ordered fault log.
	injections []Injection
}

// NewReport returns an empty report for the given seed.
func NewReport(seed int64) *Report { return &Report{Seed: seed} }

// record appends one fault and bumps the matching counter.
func (r *Report) record(i Injection) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch i.Kind {
	case "crash":
		r.crashes++
	case "recover":
		r.recoveries++
	case "restart":
		r.restarts++
	}
	r.injections = append(r.injections, i)
}

// step counts one scheduled step for process id.
func (r *Report) step(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.stepHist) <= id {
		r.stepHist = append(r.stepHist, 0)
	}
	r.stepHist[id]++
}

// stall reports an observed consecutive starvation of length n steps.
func (r *Report) stall(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.maxStall {
		r.maxStall = n
	}
}

// Crashes returns the number of injected crashes.
func (r *Report) Crashes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crashes
}

// Recoveries returns the number of injected full-persistence recoveries
// (the victim re-entered with its local state intact; see
// CrashRecovery).
func (r *Report) Recoveries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recoveries
}

// Restarts returns the number of injected amnesiac restarts (the victim
// lost its volatile state and re-ran from the top; see CrashRestart).
// Distinct from Recoveries.
func (r *Report) Restarts() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.restarts
}

// MaxStall returns the longest observed consecutive starvation, in
// scheduler steps.
func (r *Report) MaxStall() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxStall
}

// StepHist returns a copy of the per-process step histogram.
func (r *Report) StepHist() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.stepHist))
	copy(out, r.stepHist)
	return out
}

// Injections returns a copy of the ordered fault log.
func (r *Report) Injections() []Injection {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Injection, len(r.injections))
	copy(out, r.injections)
	return out
}

// String renders the report; for simulator runs the rendering is
// byte-identical across re-runs with the same seed and configuration.
func (r *Report) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "chaos report (seed %d)\n", r.Seed)
	fmt.Fprintf(&b, "  crashes: %d  recoveries: %d  restarts: %d  max stall: %d\n", r.crashes, r.recoveries, r.restarts, r.maxStall)
	fmt.Fprintf(&b, "  steps/proc: %v\n", r.stepHist)
	fmt.Fprintf(&b, "  injections: %d\n", len(r.injections))
	for _, i := range r.injections {
		fmt.Fprintf(&b, "    %s\n", i)
	}
	return b.String()
}
