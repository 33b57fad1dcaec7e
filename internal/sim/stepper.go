package sim

import (
	"errors"
	"fmt"
	"reflect"
)

// stepper.go is the run a caller drives one step at a time: the model
// checker's depth-first search over the execution tree. Run's loop asks
// a Scheduler for every step; a Stepper leaves the pick to its caller,
// and it can rewind the run to any earlier step. A search that has
// finished a node's first child rewinds to the node and steps the next
// child, instead of replaying the node's whole schedule prefix from the
// root in a fresh run.
//
// A rewind cannot copy the state it returns to: objects are opaque, and
// a process's state is the stack of its coroutine. It rebuilds both
// from the run's trace, which a stepped run records even under
// DisableTrace as its one record of every applied step and mark:
//
//   - Objects return to their initial state (the caller resets them in
//     place or hands over fresh ones), and the recorded invocations of
//     steps 0..t−1 are re-applied to them with the Env and Env.Rand
//     draws the run gave them. No process wakes up.
//   - Only the processes that stepped at or after t are restarted. Each
//     is fast-forwarded through the record before step t by the cursor
//     VerifyReplay uses (replay.go): its steps are answered and its
//     marks checked inside the coroutine, so the replay costs one
//     coroutine switch in and one out, not one per event. It must
//     re-issue exactly the invocations and marks it recorded, and then
//     the pending invocation of its step at or after t, or Rewind fails
//     with ErrReplayDivergence. Every other process stays parked as it
//     is.
//
// A scheduler that observes events or injects faults keeps state no
// record captures, so a run under one rewinds only by a fresh Start.

// Stepper drives runs one step at a time. The caller starts a run,
// reads the enabled set of its current round, steps one enabled
// process, rewinds to an earlier step, and stops it. Start runs what
// Run runs before its first pick, and Enabled and Step share Run's
// round logic: faults before the pick, the step budget and the
// bad-schedule check. A Stepper serves one run at a time and reuses its
// buffers from run to run; its zero value is ready to use.
//
// The Config is read as Run reads it, except that the caller picks
// every step: of Config.Scheduler only its Observer and FaultInjector
// halves are used.
type Stepper struct {
	rt      runtime
	open    bool  // the current round's enabled set is computed
	enabled []int // the open round's enabled set
}

// Start stops the current run, if any, and starts cfg's: every process
// runs to its first invocation or its end.
func (s *Stepper) Start(cfg Config) error {
	s.Stop()
	return s.rt.begin(cfg, true)
}

// Enabled returns the current round's enabled set, in increasing id
// order, opening the round if the last call did not: the FaultInjector
// is consulted and the step budget checked once per round. An empty set
// means the run has ended. The slice aliases a buffer the next round
// rewrites.
func (s *Stepper) Enabled() ([]int, error) {
	if !s.open {
		enabled, err := s.rt.round()
		if err != nil {
			return nil, err
		}
		s.enabled, s.open = enabled, true
	}
	return s.enabled, nil
}

// Step applies process id's pending invocation as the run's next step;
// id must be in the round's enabled set. A step that fails before or
// during the object's Apply (id not enabled, an unknown object, an
// object panic) leaves the run where it was before the step, except for
// what the object did before it panicked: Rewind to Steps() undoes
// that. A program that panics after its step was applied ends the run
// with ErrProgramPanic: the step stays applied and the process failed.
func (s *Stepper) Step(id int) error {
	enabled, err := s.Enabled()
	if err != nil {
		return err
	}
	s.open = false
	return s.rt.pick(id, enabled)
}

// Steps returns the number of steps the run has applied.
func (s *Stepper) Steps() int { return s.rt.steps }

// Trace returns the run's record, kept even under DisableTrace. It
// aliases the run's buffer until the next Step, Rewind or Start.
func (s *Stepper) Trace() Trace { return s.rt.trace }

// Result returns the run's result as a scheduler's Stop would report it
// now, verified when Config.VerifyReplay asks for it: the processes in
// the round's enabled set are StatusStopped. The run stays live, and
// the Result aliases its buffers until the next Step, Rewind or Start.
func (s *Stepper) Result() (*Result, error) {
	enabled, err := s.Enabled()
	if err != nil {
		return nil, err
	}
	if len(enabled) == 0 {
		enabled = nil
	}
	return finish(s.rt.cfg, s.rt.result(enabled))
}

// Stop ends the run: every parked process unwinds and its worker
// returns to the pool. A stopped run can only be started again.
func (s *Stepper) Stop() {
	s.rt.abortAll()
	s.open = false
}

// Errors of a rewind the run cannot make.
var (
	errRewindFaulty = errors.New("sim: a run whose scheduler observes events or injects faults cannot rewind; start it again")
	errRewindRange  = errors.New("sim: rewind to a step the run has not reached")
)

// Rewind returns the run to the configuration it had after its first t
// steps. objects are the run's objects returned to their initial state:
// the same map reset in place, or a fresh one, which the run adopts.
// The caller also re-arms Config.Choice, if set, to draw from its start;
// without one, the seeded Env.Rand is re-seeded here. The trace keeps
// the events recorded up to step t.
func (s *Stepper) Rewind(t int, objects map[string]Object) error {
	rt := &s.rt
	if rt.obs != nil || rt.injector != nil {
		return errRewindFaulty
	}
	if t < 0 || t > rt.steps {
		return errRewindRange
	}
	s.open = false
	rt.cfg.Objects = objects
	if rt.cfg.Choice == nil {
		rt.seed()
	}
	// Re-apply steps 0..t−1; cut is step t's event, whose Seq is its
	// index in a stepped run's trace, or the trace's end.
	events := rt.trace.Events
	cut := len(events)
	for i, step := 0, 0; i < len(events); i++ {
		if e := &events[i]; e.Kind == EventStep {
			if step == t {
				cut = i
				break
			}
			if err := rt.reapply(e, step); err != nil {
				return err
			}
			step++
		}
	}
	for i := cut; i < len(events); i++ {
		if events[i].Kind == EventStep {
			rt.procs[events[i].Proc].rewound = true
		}
	}
	rt.steps, rt.seq = t, cut
	for id := range rt.procs {
		if rt.procs[id].rewound {
			if err := s.restart(id, cut); err != nil {
				return err
			}
		}
	}
	rt.trace.Events = events[:cut]
	return nil
}

// reapply applies recorded step e, the run's step'th, to the objects
// again, as the run first applied it. The object must answer as it did:
// a different answer means its initial state or its Apply is not what
// the run had.
func (rt *runtime) reapply(e *Event, step int) error {
	obj, ok := rt.cfg.Objects[e.Object]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, e.Object)
	}
	rt.env = Env{Proc: e.Proc, Step: step, Rand: rt.choice}
	resp, err := applyObject(obj, &rt.env, e.Object, Invocation{Op: e.Op, Args: e.Args})
	if err != nil {
		return err
	}
	hang := resp.Effect == Hang
	if hang != e.Hang || (!hang && !reflect.DeepEqual(resp.Value, e.Out)) {
		return fmt.Errorf("%w: %q answered re-applied step %d otherwise than the run recorded", ErrReplayDivergence, e.Object, step)
	}
	return nil
}

// restart replaces process id's incarnation with a fresh one
// fast-forwarded through the record before cut, step t's event, to
// where the process was after the run's first t steps: parked at the
// invocation its first step at or after t applied.
func (s *Stepper) restart(id, cut int) error {
	rt := &s.rt
	p := &rt.procs[id]
	rt.abort(p)
	clear(rt.procs[id : id+1])
	w := getWorker()
	p.w, p.pending = w, true
	c := &w.cur
	c.seek(rt.trace.Events, id, cut)
	w.start(id, 0, rt.cfg.Recovery, rt.cfg.Programs[id])
	c.on = false
	m := &w.msg
	if m.kind == msgInvoke && c.at < len(c.events) && records(&c.events[c.at], m) {
		return nil
	}
	if !w.parked() {
		putWorker(w)
		p.w, p.pending = nil, false
	}
	return c.stray(m)
}
