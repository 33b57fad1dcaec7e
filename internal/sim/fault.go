package sim

import "errors"

// This file defines the simulator's crash-restart fault model: the split of
// state into persistent and volatile halves, the directives a fault-injecting
// scheduler issues, and the recovery step a restarted process runs before its
// program re-executes.
//
// The paper's own fault model is crash-stop — a crashed process is merely one
// the adversary never schedules again, expressible with any Scheduler (see
// sim.Crashing). Crash-*restart* is strictly richer: a crashed process loses
// its volatile state (program locals, the in-flight invocation, any volatile
// fields of Recoverable objects) and later re-enters from the top of its
// program, preceded by Config.Recovery. Durable object state survives. This
// is the individual-crash-restart model with explicit persistence used by the
// recoverable-objects literature ("Determining Recoverable Consensus
// Numbers", Ovens 2024; see PAPERS.md): shared base objects are
// non-volatile, process-local state is volatile, and an object's power can
// change when its implementation keeps decision-relevant state in the wrong
// half.
//
// Everything stays inside the deterministic lockstep discipline: faults are
// issued by the run's Scheduler (via the optional FaultInjector interface),
// are applied synchronously between steps, are recorded in the trace as
// EventCrash/EventRestart, and are replayed by VerifyReplay. A (seed,
// config, scheduler) triple still identifies a unique execution.

// ErrBadFault is returned by Run when a FaultInjector issues a directive
// that cannot be applied: crashing a process with no pending invocation
// (already finished, hung, or crashed), or restarting a process that is not
// crashed.
var ErrBadFault = errors.New("sim: fault directive targets an ineligible process")

// FaultKind enumerates the fault directives a FaultInjector may issue.
type FaultKind int

const (
	// FaultCrash crashes a process with a pending invocation: the pending
	// invocation is wiped (it is never applied; the trace records it in the
	// EventCrash event), the process's incarnation is unwound together with
	// all program locals, and every Recoverable object is told to drop the
	// process's volatile state. The process contributes nothing further to
	// the run until a FaultRestart; if none arrives it ends the run with
	// StatusCrashed.
	FaultCrash FaultKind = iota
	// FaultRestart restarts a crashed process amnesiacally: a fresh
	// incarnation runs Config.Recovery (if set) and then the process's
	// Program again from the top, under an incremented Ctx.Incarnation.
	// Nothing of the previous incarnation's volatile state survives; state
	// intended to survive must live in durable object fields.
	FaultRestart
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRestart:
		return "restart"
	default:
		return "FaultKind(?)"
	}
}

// Fault is one directive issued by a FaultInjector.
type Fault struct {
	// Proc is the id of the targeted process.
	Proc int
	// Kind selects crash or restart.
	Kind FaultKind
}

// FaultInjector is an optional interface for schedulers. When the run's
// Scheduler implements it, the runtime consults Faults once per scheduling
// round, before Next. A non-empty batch is applied in order (so a crash
// directly followed by a restart of the same process models a zero-window
// restart) and the round is then restarted with a recomputed View; Next is
// not called in rounds that applied faults.
//
// Contract:
//   - Directives must be applicable (see ErrBadFault): only processes
//     listed in v.Enabled can be crashed, only processes listed in
//     v.Crashed can be restarted.
//   - Faults may be consulted several times at the same v.Step (after a
//     fault batch, and again after restarts settle), so implementations
//     must keep their own fired/not-fired state rather than keying on
//     step equality alone.
//   - The total number of directives in a run is bounded by the step
//     budget; exceeding it fails the run with ErrMaxSteps, which keeps
//     crash-restart loops from running forever.
//   - Like Next, Faults must be a pure function of the views (and any
//     events observed via Observer) seen so far — no clocks, no unseeded
//     randomness — so that runs stay seed-reproducible.
type FaultInjector interface {
	Faults(v View) []Fault
}

// Recoverable is an optional interface for shared objects, splitting their
// state into a durable half and a volatile half. When a process crashes the
// runtime calls OnCrash(proc) on every Recoverable object (in sorted object-
// name order, for determinism): the object must discard any state it holds
// on the crashed process's behalf that would not survive a power loss —
// write-behind buffers, response caches, per-process scratch slots. Durable
// fields are untouched.
//
// Objects that do not implement Recoverable are entirely durable, which
// matches the shared-memory model where base objects live in non-volatile
// memory; plain registers need no OnCrash. An object may also implement
// Recoverable with a no-op OnCrash to document that all of its state is
// deliberately durable.
type Recoverable interface {
	Object
	// OnCrash discards all volatile state held for process proc. It must
	// not touch durable state and must not block.
	OnCrash(proc int)
}

// RecoveryProc is the per-process recovery step run by a restarted process
// before its Program re-executes (Config.Recovery). It runs at the start
// of the restarted process's fresh incarnation under the same lockstep
// discipline as a Program — every Invoke consumes a scheduler step — and
// is subject to the same purity contract: it must be a pure function of
// its invocation results, or VerifyReplay will flag the run.
// Ctx.Incarnation reports which incarnation is recovering (always >= 1
// inside a RecoveryProc).
type RecoveryProc func(ctx *Ctx)
