// Package sim provides a deterministic, lockstep simulator for the standard
// asynchronous shared-memory model used in the paper: processes execute
// sequential programs and communicate only by applying atomic operations
// (steps) to shared objects. Exactly one process advances at a time; which
// one is chosen by a pluggable Scheduler. Each process runs as a coroutine
// that yields to the runtime at every operation (see worker.go), so a step
// is a direct switch, not a goroutine handoff. Runs are fully deterministic
// given the scheduler's decisions and the configuration seed, and every
// atomic step is recorded in a Trace that downstream checkers (task
// checkers, the linearizability checker, the model checker) consume.
//
// The simulator supports the paper's "hang the system in a manner that
// cannot be detected" semantics: an object may respond to an illegal or
// over-budget operation by parking the calling process forever. A run
// terminates when every process has either produced an output or been
// parked.
//
// Beyond the paper's crash-stop fault model, the simulator also supports
// deterministic crash-restart with volatile-state loss: schedulers that
// implement FaultInjector can crash a process (wiping its locals, its
// in-flight invocation and the volatile half of Recoverable objects) and
// later restart it through Config.Recovery. See fault.go for the model.
//
// # Concurrency contract
//
// Concurrent calls to Run are safe if and only if the Configs share no
// mutable state. The -parallel seed sweeps of cmd/wrnsim and cmd/chaos
// rely on exactly this, so the contract is:
//
//   - Objects, Scheduler, Choice and (if the scheduler implements it)
//     Observer instances belong to ONE run. They hold per-run state and
//     are driven without locking; never share an instance between
//     concurrent Runs. A Factory must build fresh instances per call.
//   - Programs are shared safely only when they are pure functions of
//     their Ctx: closures must not write captured variables. Capturing
//     loop variables or configuration constants by value is fine.
//   - The returned Result (including its Trace) is owned by the caller
//     and safe to read from any goroutine once Run returns.
//   - The only state concurrent Runs share is the pool of idle process
//     workers, which is locked internally.
package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is the domain of object states, operation arguments and results.
// The library restricts itself to comparable values (ints, strings, small
// structs and arrays) so that checkers can compare them with ==.
type Value = any

// Invocation is a single operation request directed at a shared object.
type Invocation struct {
	// Op names the operation, e.g. "read", "write", "WRN", "propose".
	Op string
	// Args carries the operation's arguments, if any.
	Args []Value
}

// Arg returns the i-th argument, or nil if there is no such argument.
func (inv Invocation) Arg(i int) Value {
	if i < 0 || i >= len(inv.Args) {
		return nil
	}
	return inv.Args[i]
}

// String renders the invocation as op(a0, a1, ...). Traces render every
// step through here, so it must not allocate quadratically.
func (inv Invocation) String() string {
	if len(inv.Args) == 0 {
		return inv.Op + "()"
	}
	var b strings.Builder
	b.WriteString(inv.Op)
	b.WriteByte('(')
	for i, a := range inv.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprint(&b, a)
	}
	b.WriteByte(')')
	return b.String()
}

// Effect describes what happens to the calling process after an operation
// is applied to an object.
type Effect int

const (
	// Return delivers Response.Value to the caller, which then resumes.
	Return Effect = iota
	// Hang parks the calling process forever. No value is delivered and no
	// other process can observe that the hang occurred. This models the
	// paper's bounded-use and illegal-invocation semantics.
	Hang
)

// Response is the outcome of applying an Invocation to an Object.
type Response struct {
	Value  Value
	Effect Effect
}

// Respond builds a normal response carrying v.
func Respond(v Value) Response { return Response{Value: v} }

// HangCaller builds a response that parks the calling process forever.
func HangCaller() Response { return Response{Effect: Hang} }

// Env carries per-step context into Object.Apply. Nondeterministic objects
// draw their choices from Rand, which is seeded from Config.Seed so that
// whole runs remain reproducible.
type Env struct {
	// Proc is the id of the process applying the operation.
	Proc int
	// Step is the index of this atomic step within the run.
	Step int
	// Rand is a deterministic source for nondeterministic objects. It is
	// never nil during a run. Without a Config.Choice it is a *rand.Rand
	// over a Source seeded with Config.Seed, so its draws are those of
	// rand.New(rand.NewSource(Config.Seed)) and seeding it costs O(1).
	Rand RandSource
}

// RandSource is the subset of math/rand used by nondeterministic objects.
// It is an interface so the model checker can substitute enumerated
// choices for random ones.
type RandSource interface {
	// Intn returns a value in [0, n). n must be > 0.
	Intn(n int) int
}

// Object is a shared object: a sequential state machine. The simulator
// serializes all access, so implementations are single-threaded and need
// no synchronization. Apply executes one atomic operation and returns its
// response; it must not retain inv.Args or env (the runtime rebuilds one
// Env in place per step).
type Object interface {
	Apply(env *Env, inv Invocation) Response
}

// ObjectFunc adapts a function to the Object interface, for small stateless
// or closure-based objects in tests.
type ObjectFunc func(env *Env, inv Invocation) Response

// Apply implements Object.
func (f ObjectFunc) Apply(env *Env, inv Invocation) Response { return f(env, inv) }

// Indexed builds the conventional name of the i-th object of an object
// array, e.g. Indexed("R", 3) == "R[3]".
func Indexed(name string, i int) string {
	return name + "[" + strconv.Itoa(i) + "]"
}
