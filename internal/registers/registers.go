// Package registers provides the base shared objects of the paper's model:
// atomic multi-writer and single-writer registers, increment/read counters
// (used by the relaxed WRN wrapper, Algorithm 4), and the doorway register
// of Algorithm 5. Each is a sim.Object together with a typed handle (Ref)
// that algorithm code uses to issue operations through a sim.Ctx.
//
// Misusing an object — writing an SWMR register from the wrong process,
// invoking an unknown operation — is a programming error in the algorithm
// under simulation and panics with a descriptive message.
package registers

import (
	"fmt"
	"strconv"

	"detobj/internal/sim"
)

// MWMR marks a register writable by every process.
const MWMR = -1

// Register is an atomic read/write register.
type Register struct {
	value   sim.Value
	initial sim.Value // what Reset restores
	writer  int
}

// New returns a multi-writer multi-reader register holding initial.
func New(initial sim.Value) *Register {
	return &Register{value: initial, initial: initial, writer: MWMR}
}

// NewSWMR returns a single-writer register holding initial that only the
// given process may write. Reads are unrestricted.
func NewSWMR(initial sim.Value, writer int) *Register {
	return &Register{value: initial, initial: initial, writer: writer}
}

// Apply implements sim.Object with operations "read" and "write".
func (r *Register) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	switch inv.Op {
	case "read":
		return sim.Respond(r.value)
	case "write":
		if r.writer != MWMR && env.Proc != r.writer {
			panic(fmt.Sprintf("registers: process %d wrote SWMR register owned by %d", env.Proc, r.writer))
		}
		r.value = inv.Arg(0)
		return sim.Respond(nil)
	default:
		panic(fmt.Sprintf("registers: unknown register operation %q", inv.Op))
	}
}

// Ref is a typed handle to a Register registered under Name.
type Ref struct {
	Name string
}

// Read returns the register's current value (one atomic step).
func (r Ref) Read(ctx *sim.Ctx) sim.Value {
	return ctx.Invoke(r.Name, "read")
}

// Write sets the register's value (one atomic step).
func (r Ref) Write(ctx *sim.Ctx, v sim.Value) {
	ctx.Invoke(r.Name, "write", v)
}

// Counter is an atomic counter supporting unit increments and reads; it is
// the flag-principle counter protecting each 1sWRN index in Algorithm 4.
type Counter struct {
	n int
}

// NewCounter returns a counter initialized to zero.
func NewCounter() *Counter { return &Counter{} }

// Apply implements sim.Object with operations "inc" and "read".
func (c *Counter) Apply(_ *sim.Env, inv sim.Invocation) sim.Response {
	switch inv.Op {
	case "inc":
		c.n++
		return sim.Respond(nil)
	case "read":
		return sim.Respond(c.n)
	default:
		panic(fmt.Sprintf("registers: unknown counter operation %q", inv.Op))
	}
}

// CounterRef is a typed handle to a Counter registered under Name.
type CounterRef struct {
	Name string
}

// Inc increments the counter by one (one atomic step).
func (c CounterRef) Inc(ctx *sim.Ctx) {
	ctx.Invoke(c.Name, "inc")
}

// Read returns the counter's current value (one atomic step).
func (c CounterRef) Read(ctx *sim.Ctx) int {
	return ctx.Invoke(c.Name, "read").(int)
}

// Doorway states, stored in an ordinary MWMR register.
const (
	Opened = "opened"
	Closed = "closed"
)

// NewDoorway returns the doorway register of Algorithm 5: an MWMR register
// initialized to Opened.
func NewDoorway() *Register { return New(Opened) }

// DoorwayRef is a typed handle to a doorway register.
type DoorwayRef struct {
	Name string
}

// IsOpen reads the doorway and reports whether it is still open.
func (d DoorwayRef) IsOpen(ctx *sim.Ctx) bool {
	return ctx.Invoke(d.Name, "read") == Opened
}

// Close shuts the doorway.
func (d DoorwayRef) Close(ctx *sim.Ctx) {
	ctx.Invoke(d.Name, "write", Closed)
}

// AddArray registers k objects under names name[0] .. name[k-1] built by
// mk and returns their names.
func AddArray(objects map[string]sim.Object, name string, k int, mk func(i int) sim.Object) []string {
	names := make([]string, k)
	for i := 0; i < k; i++ {
		names[i] = sim.Indexed(name, i)
		objects[names[i]] = mk(i)
	}
	return names
}

// AddRegisterArray registers k MWMR registers initialized to initial and
// returns typed handles to them.
func AddRegisterArray(objects map[string]sim.Object, name string, k int, initial sim.Value) []Ref {
	refs := make([]Ref, k)
	for i, n := range AddArray(objects, name, k, func(int) sim.Object { return New(initial) }) {
		refs[i] = Ref{Name: n}
	}
	return refs
}

// AddSWMRArray registers k single-writer registers, the i-th owned by
// process owner(i), initialized to initial, and returns typed handles.
func AddSWMRArray(objects map[string]sim.Object, name string, k int, initial sim.Value, owner func(i int) int) []Ref {
	refs := make([]Ref, k)
	for i, n := range AddArray(objects, name, k, func(i int) sim.Object { return NewSWMR(initial, owner(i)) }) {
		refs[i] = Ref{Name: n}
	}
	return refs
}

// AddCounterArray registers k counters and returns typed handles.
func AddCounterArray(objects map[string]sim.Object, name string, k int) []CounterRef {
	refs := make([]CounterRef, k)
	for i, n := range AddArray(objects, name, k, func(int) sim.Object { return NewCounter() }) {
		refs[i] = CounterRef{Name: n}
	}
	return refs
}

// StateKey serializes the register value (for the model checker).
func (r *Register) StateKey() string { return sim.Sprint(r.value) }

// AppendStateSig implements sim.StateSigner.
func (r *Register) AppendStateSig(dst []byte) []byte {
	return sim.AppendValueSig(dst, r.value)
}

// CloneObject returns a copy (for the model checker).
func (r *Register) CloneObject() sim.Object {
	return &Register{value: r.value, initial: r.initial, writer: r.writer}
}

// Reset returns the register in place to its initial value.
func (r *Register) Reset() { r.value = r.initial }

// StateKey serializes the counter (for the model checker).
func (c *Counter) StateKey() string { return strconv.Itoa(c.n) }

// AppendStateSig implements sim.StateSigner.
func (c *Counter) AppendStateSig(dst []byte) []byte {
	return sim.AppendIntSig(dst, c.n)
}

// CloneObject returns a copy (for the model checker).
func (c *Counter) CloneObject() sim.Object { return &Counter{n: c.n} }

// Reset returns the counter in place to zero.
func (c *Counter) Reset() { c.n = 0 }
