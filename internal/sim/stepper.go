package sim

import (
	"errors"
	"fmt"
	"reflect"
	goruntime "runtime"
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
// from the step log, the one record a stepped run keeps of every
// applied step (process, invocation, response):
//
//   - Objects return to their initial state (the caller resets them in
//     place or hands over fresh ones), and the logged invocations of
//     steps 0..t−1 are re-applied to them with the Env and Env.Rand
//     draws the run gave them. No process wakes up.
//   - Only the processes that stepped at or after t are restarted. Each
//     is fast-forwarded inline through its own logged responses: its
//     Ctx calls return at once while the log lasts, so the replay costs
//     one coroutine switch in and one out, not one per step. It must
//     re-issue exactly the invocations it logged, the pending one at t
//     included, or Rewind fails with ErrReplayDivergence. Every other
//     process stays parked as it is.
//
// A scheduler that observes events or injects faults keeps state no log
// captures, so a run under one rewinds only by a fresh Start.

// logged is one step-log entry: an applied step and its response, and
// the event sequence number the step was recorded under (the trace's
// length before it, when tracing).
type logged struct {
	proc int
	obj  string
	inv  Invocation
	out  Value
	hang bool
	seq  int
}

// logStep appends the step process id just applied to the log.
func (rt *runtime) logStep(id int, m *message, resp Response) {
	rt.log = append(rt.log, logged{proc: id, obj: m.obj, inv: m.inv, out: resp.Value, hang: resp.Effect == Hang, seq: rt.seq})
}

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
	arena   runArena
	rt      *runtime
	open    bool  // the current round's enabled set is computed
	enabled []int // the open round's enabled set
	ff      forward
}

// Start stops the current run, if any, and starts cfg's: every process
// runs to its first invocation or its end.
func (s *Stepper) Start(cfg Config) error {
	s.Stop()
	n := len(cfg.Programs)
	if n == 0 {
		return ErrNoPrograms
	}
	// See Run: one yield per run keeps the GC's mark worker prompt.
	goruntime.Gosched()
	s.rt = newRuntime(cfg, n, &s.arena)
	s.rt.logging = true
	return s.rt.begin(cfg.Scheduler)
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
	if s.rt != nil {
		s.rt.abortAll()
		s.rt = nil
	}
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
// without one, the seeded Env.Rand is re-seeded here. OnStep is called
// for every re-applied step, as the run made them, and the trace keeps
// the events recorded up to step t.
func (s *Stepper) Rewind(t int, objects map[string]Object) error {
	rt := s.rt
	if rt.obs != nil || rt.injector != nil {
		return errRewindFaulty
	}
	if t < 0 || t > len(rt.log) {
		return errRewindRange
	}
	s.open = false
	rt.cfg.Objects = objects
	for i := t; i < len(rt.log); i++ {
		rt.procs[rt.log[i].proc].rewound = true
	}
	if t < len(rt.log) {
		rt.seq = rt.log[t].seq
		if !rt.cfg.DisableTrace {
			rt.trace.Events = rt.trace.Events[:rt.seq]
		}
	}
	if rt.cfg.Choice == nil {
		rt.seed()
	}
	for i := 0; i < t; i++ {
		if err := rt.reapply(i); err != nil {
			return err
		}
	}
	rt.steps = t
	for id := range rt.procs {
		if rt.procs[id].rewound {
			if err := s.restart(id, t); err != nil {
				return err
			}
		}
	}
	rt.log = rt.log[:t]
	return nil
}

// reapply applies logged step i to the objects again, as the run first
// applied it, and reports it to OnStep. The object must answer as it
// did: a different answer means its initial state or its Apply is not
// what the run had.
func (rt *runtime) reapply(i int) error {
	e := &rt.log[i]
	obj, ok := rt.cfg.Objects[e.obj]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, e.obj)
	}
	rt.env = Env{Proc: e.proc, Step: i, Rand: rt.choice}
	resp, err := applyObject(obj, &rt.env, e.obj, e.inv)
	if err != nil {
		return err
	}
	hang := resp.Effect == Hang
	if hang != e.hang || (!hang && !reflect.DeepEqual(resp.Value, e.out)) {
		return fmt.Errorf("%w: %q answered re-applied step %d otherwise than the run logged", ErrReplayDivergence, e.obj, i)
	}
	if rt.cfg.OnStep != nil {
		rt.cfg.OnStep(e.proc, resp.Value, hang)
	}
	return nil
}

// restart replaces process id's incarnation with a fresh one
// fast-forwarded through the log to where the process was after the
// run's first t steps: parked at the invocation of its first step at or
// after t.
func (s *Stepper) restart(id, t int) error {
	rt := s.rt
	p := &rt.procs[id]
	rt.abort(p)
	clear(rt.procs[id : id+1])
	f := &s.ff
	f.log, f.proc, f.end, f.at, f.off = rt.log, id, t, 0, false
	w := getWorker()
	p.w = w
	w.ff = f
	w.start(id, 0, rt.cfg.Recovery, rt.cfg.Programs[id])
	w.ff = nil
	m := &w.msg
	switch {
	case f.off:
		p.pending = true
		return fmt.Errorf("%w: process %d, fast-forwarded to step %d, invoked %s.%v off its logged steps",
			ErrReplayDivergence, id, t, m.obj, m.inv)
	case m.kind == msgInvoke:
		p.pending = true
		return nil
	}
	putWorker(w)
	p.w = nil
	return fmt.Errorf("%w: process %d, fast-forwarded to step %d, ended (%v) before its logged steps did",
		ErrReplayDivergence, id, t, m.out)
}

// forward is the log cursor a restarted process's Ctx reads while it is
// fast-forwarded.
type forward struct {
	log  []logged
	proc int
	end  int  // the rewind point t
	at   int  // the log index scanned up to
	off  bool // the process issued an invocation the log does not record
}

// invoke answers the process's next invocation from the log while the
// fast-forward lasts. ok is false once the process reaches its pending
// invocation at the rewind point, or when it issues one the log does
// not record (off is then set): it parks there.
func (f *forward) invoke(object, op string, args []Value) (out Value, ok bool) {
	for f.at < len(f.log) && f.log[f.at].proc != f.proc {
		f.at++
	}
	if f.at == len(f.log) {
		f.off = true
		return nil, false
	}
	e := &f.log[f.at]
	if e.obj != object || e.inv.Op != op || !sameArgs(e.inv.Args, args) {
		f.off = true
		return nil, false
	}
	if f.at >= f.end {
		return nil, false
	}
	f.at++
	return e.out, true
}
