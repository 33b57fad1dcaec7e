package sim

import (
	"fmt"
	"strings"
)

// EventKind distinguishes the kinds of trace events.
type EventKind int

const (
	// EventStep records one atomic operation applied to a base object.
	EventStep EventKind = iota
	// EventCall marks the start of a logical (implemented) operation. It is
	// emitted by algorithm code via Ctx.BeginOp and consumed by the
	// linearizability checker.
	EventCall
	// EventReturn marks the end of a logical operation (Ctx.EndOp).
	EventReturn
	// EventCrash records a FaultCrash directive: the process's pending
	// invocation (carried in Object/Op/Args, never applied) and all its
	// volatile state were wiped. Crash events consume no scheduler step.
	EventCrash
	// EventRestart records a FaultRestart directive: Out carries the new
	// incarnation number. The events that follow for this process come
	// from the recovery step and the re-executed program.
	EventRestart
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventStep:
		return "step"
	case EventCall:
		return "call"
	case EventReturn:
		return "return"
	case EventCrash:
		return "crash"
	case EventRestart:
		return "restart"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of a run's trace. Seq is a global, strictly increasing
// sequence number over all events; events of kind EventStep additionally
// consume a scheduler step.
type Event struct {
	Seq    int
	Kind   EventKind
	Proc   int
	Object string
	Op     string
	Args   []Value
	Out    Value
	Hang   bool
}

// String renders the event compactly, e.g. "12 P3 step R[1].write(5) -> <nil>".
func (e Event) String() string {
	var b strings.Builder
	switch e.Kind {
	case EventCrash:
		fmt.Fprintf(&b, "%d P%d crash wiped %s.%s", e.Seq, e.Proc, e.Object, Invocation{Op: e.Op, Args: e.Args})
		return b.String()
	case EventRestart:
		fmt.Fprintf(&b, "%d P%d restart incarnation %v", e.Seq, e.Proc, e.Out)
		return b.String()
	}
	fmt.Fprintf(&b, "%d P%d %s %s.%s", e.Seq, e.Proc, e.Kind, e.Object, Invocation{Op: e.Op, Args: e.Args})
	switch {
	case e.Hang:
		b.WriteString(" -> HANG")
	case e.Kind != EventCall:
		fmt.Fprintf(&b, " -> %v", e.Out)
	}
	return b.String()
}

// Trace is the ordered record of a run.
type Trace struct {
	Events []Event
}

// Len returns the number of recorded events.
func (t Trace) Len() int { return len(t.Events) }

// Steps returns the number of atomic steps (EventStep events) recorded.
func (t Trace) Steps() int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == EventStep {
			n++
		}
	}
	return n
}

// ByObject returns the sub-trace of events touching the named object,
// preserving order.
func (t Trace) ByObject(name string) Trace {
	var out Trace
	for _, e := range t.Events {
		if e.Object == name {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// String renders the whole trace, one event per line.
func (t Trace) String() string {
	var b strings.Builder
	for _, e := range t.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
