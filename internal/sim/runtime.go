package sim

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sort"
)

// DefaultMaxSteps bounds runs whose scheduler never stops; exceeding it is
// reported as ErrMaxSteps. Wait-free algorithms terminate far below it.
const DefaultMaxSteps = 1 << 20

// Sentinel errors returned by Run.
var (
	// ErrNoPrograms is returned when the configuration has no processes.
	ErrNoPrograms = errors.New("sim: configuration has no programs")
	// ErrMaxSteps is returned when a run exceeds its step budget.
	ErrMaxSteps = errors.New("sim: run exceeded maximum step count")
	// ErrUnknownObject is returned when a program invokes an object that
	// was never registered in the configuration.
	ErrUnknownObject = errors.New("sim: invocation of unknown object")
	// ErrBadSchedule is returned when a scheduler names a process that is
	// not enabled.
	ErrBadSchedule = errors.New("sim: scheduler chose a process that is not enabled")
	// ErrProgramPanic is returned when a program panics; the panic value is
	// included in the wrapped error.
	ErrProgramPanic = errors.New("sim: program panicked")
	// ErrObjectPanic is returned when an object's Apply panics (an illegal
	// invocation, or a model-checking control signal). The error is an
	// *ObjectPanicError carrying the panic value.
	ErrObjectPanic = errors.New("sim: object panicked")
)

// ObjectPanicError reports a panic raised by an object during Apply. It
// wraps ErrObjectPanic and preserves the panic value, which the model
// checker uses to intercept choice-demand signals from nondeterministic
// objects.
type ObjectPanicError struct {
	Object string
	Op     string
	Value  any
}

// Error implements error.
func (e *ObjectPanicError) Error() string {
	return fmt.Sprintf("sim: object %q panicked applying %q: %v", e.Object, e.Op, e.Value)
}

// Unwrap makes errors.Is(err, ErrObjectPanic) work.
func (e *ObjectPanicError) Unwrap() error { return ErrObjectPanic }

// Program is the sequential code of one process. It communicates only via
// ctx and returns the process's output (its decision). Programs for
// different processes must not share mutable memory; everything shared goes
// through objects.
type Program func(ctx *Ctx) Value

// Config describes one run: the shared objects, one program per process,
// the scheduler and determinism parameters. Concurrent Runs are safe only
// over Configs sharing no mutable state — see the package comment's
// "Concurrency contract".
type Config struct {
	// Objects maps object names to fresh object instances. Objects carry
	// state, so a Config (with its Objects) describes a single run; use a
	// factory to run many times.
	Objects map[string]Object
	// Programs holds one program per process; process ids are indices.
	Programs []Program
	// Scheduler decides the interleaving; nil defaults to round-robin.
	Scheduler Scheduler
	// MaxSteps bounds the run; 0 means DefaultMaxSteps.
	MaxSteps int
	// Seed seeds Env.Rand for nondeterministic objects: its draws are
	// those of rand.New(rand.NewSource(Seed)). Seeding is O(1) (see
	// Source), so a run pays only for the draws its objects make.
	Seed int64
	// Choice, when non-nil, replaces the seeded Env.Rand so callers (in
	// particular the model checker) can control or enumerate the choices
	// of nondeterministic objects.
	Choice RandSource
	// DisableTrace leaves Result.Trace empty, and Run records no
	// events (for benchmarks). A Stepper's run records them all the
	// same, as the record its rewinds re-execute programs against.
	DisableTrace bool
	// VerifyReplay, when set (and the trace is enabled), re-executes
	// every program against the recorded trace after the run and fails
	// with ErrReplayDivergence if any program behaves differently on the
	// second execution — catching programs that are not pure functions
	// of their invocation results. See verifyReplay in replay.go.
	VerifyReplay bool
	// Recovery, when non-nil, runs in a restarted process's fresh
	// incarnation before its Program re-executes (see FaultRestart in
	// fault.go). Incarnation 0 never runs it. It is shared by all
	// processes and must obey the Program purity contract.
	Recovery RecoveryProc
}

// ProcStatus is the final status of a process after a run.
type ProcStatus int

const (
	// StatusDone means the program returned an output.
	StatusDone ProcStatus = iota
	// StatusHung means an object parked the process forever.
	StatusHung
	// StatusStopped means the scheduler halted the run while the process
	// still had a pending invocation.
	StatusStopped
	// StatusFailed means the program panicked.
	StatusFailed
	// StatusCrashed means a FaultInjector crashed the process and no
	// restart arrived before the run ended. Its in-flight invocation was
	// wiped, not applied.
	StatusCrashed
)

// String implements fmt.Stringer.
func (s ProcStatus) String() string {
	switch s {
	case StatusDone:
		return "done"
	case StatusHung:
		return "hung"
	case StatusStopped:
		return "stopped"
	case StatusFailed:
		return "failed"
	case StatusCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("ProcStatus(%d)", int(s))
	}
}

// Result is the outcome of a run.
type Result struct {
	// Outputs holds each process's returned value; nil for processes that
	// did not finish.
	Outputs []Value
	// Status holds each process's final status.
	Status []ProcStatus
	// Enabled lists processes that still had a pending invocation when the
	// run was stopped by the scheduler, in increasing id order.
	Enabled []int
	// Steps is the number of atomic steps taken.
	Steps int
	// Restarts holds, per process, how many times it was crash-restarted
	// (its final incarnation number). It is nil when the scheduler is not
	// a FaultInjector.
	Restarts []int
	// Trace is the recorded event history (empty if DisableTrace).
	Trace Trace
}

// Decided returns the outputs of processes with StatusDone, indexed by
// process id; absent processes are skipped.
func (r *Result) Decided() map[int]Value {
	out := make(map[int]Value)
	for i, st := range r.Status {
		if st == StatusDone {
			out[i] = r.Outputs[i]
		}
	}
	return out
}

// AllDone reports whether every process produced an output.
func (r *Result) AllDone() bool {
	for _, st := range r.Status {
		if st != StatusDone {
			return false
		}
	}
	return true
}

type procState struct {
	w           *worker // the live incarnation's coroutine; nil when none runs
	status      ProcStatus
	pending     bool // parked at an invocation, which is in w.msg
	output      Value
	incarnation int  // number of crash-restarts applied so far
	rewound     bool // a Stepper's rewind restarts this process
}

// Run executes one complete run of the configuration and returns its
// result. It is deterministic given Config and the scheduler's behaviour.
func Run(cfg Config) (*Result, error) {
	sched := cfg.Scheduler
	if sched == nil {
		sched = NewRoundRobin()
	}
	rt := new(runtime)
	// Every return path, and a panic escaping a scheduler or observer,
	// unwinds the processes still parked so their workers return to the
	// pool.
	defer rt.abortAll()
	if err := rt.begin(cfg, false); err != nil {
		return nil, err
	}
	for {
		enabled, err := rt.round()
		if err != nil {
			return nil, err
		}
		if len(enabled) == 0 {
			return finish(cfg, rt.result(nil))
		}
		next := sched.Next(View{Step: rt.steps, Enabled: enabled})
		if next == Stop {
			rt.abortAll()
			return finish(cfg, rt.result(enabled))
		}
		if err := rt.pick(next, enabled); err != nil {
			return nil, err
		}
	}
}

// begin starts a run of cfg on rt: it seeds Env.Rand, taps the
// scheduler's Observer and FaultInjector halves and runs every process
// to its first invocation or its end. A stepped run records its trace
// even under DisableTrace: it is the record a rewind re-executes
// programs against.
func (rt *runtime) begin(cfg Config, stepped bool) error {
	n := len(cfg.Programs)
	if n == 0 {
		return ErrNoPrograms
	}
	// Coroutine switches never enter the Go scheduler, so a long run of
	// them can starve the GC's background mark worker until the next
	// preemption tick, and the heap overshoots its goal. One yield per
	// run keeps marking prompt (see DESIGN.md §5.1).
	goruntime.Gosched()
	rt.reset(cfg, n)
	rt.tracing = stepped || !cfg.DisableTrace
	rt.maxSteps = rt.cfg.MaxSteps
	if rt.maxSteps <= 0 {
		rt.maxSteps = DefaultMaxSteps
	}
	rt.choice = rt.cfg.Choice
	if rt.choice == nil {
		rt.seed()
	}
	if o, ok := cfg.Scheduler.(Observer); ok {
		rt.obs = o
	}
	if fi, ok := cfg.Scheduler.(FaultInjector); ok {
		rt.injector = fi
	}
	for i := range rt.procs {
		if err := rt.start(i); err != nil {
			return err
		}
	}
	return nil
}

// seed points Env.Rand at the runtime's own source, seeded with
// Config.Seed. Env.Rand and its source live in the runtime, so seeding
// them allocates nothing. rand.New inlines, and its result is copied.
func (rt *runtime) seed() {
	rt.src.Seed(rt.cfg.Seed)
	rt.rng = *rand.New(&rt.src)
	rt.choice = &rt.rng
}

// round opens a scheduling round and returns its enabled set, which is
// empty once the run has ended. It consults the fault channel before
// the pick, applying each batch and re-opening the round, and it fails
// a run with a process still enabled once the step budget is spent.
func (rt *runtime) round() ([]int, error) {
	for {
		enabled := rt.enabled()
		if rt.injector != nil {
			// An applied batch invalidates the view, so the round starts
			// over. This runs even with no process enabled: a restart
			// directive is how a run whose survivors are all done resumes
			// a crashed process (see FaultInjector in fault.go).
			faults := rt.injector.Faults(View{Step: rt.steps, Enabled: enabled, Crashed: rt.crashedIDs()})
			if len(faults) > 0 {
				if err := rt.applyFaults(faults); err != nil {
					return nil, err
				}
				continue
			}
		}
		if len(enabled) > 0 && rt.steps >= rt.maxSteps {
			return nil, fmt.Errorf("%w (budget %d)", ErrMaxSteps, rt.maxSteps)
		}
		return enabled, nil
	}
}

// pick steps process next, which the round's enabled set must list.
func (rt *runtime) pick(next int, enabled []int) error {
	if !contains(enabled, next) {
		return fmt.Errorf("%w: process %d at step %d (enabled: %v)", ErrBadSchedule, next, rt.steps, enabled)
	}
	return rt.step(next)
}

// finish applies the post-run verification pass, if configured.
func finish(cfg Config, res *Result) (*Result, error) {
	if cfg.VerifyReplay && !cfg.DisableTrace {
		if err := verifyReplay(cfg, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// runtime is one run's state. A Stepper keeps one from run to run, and
// reset reuses its buffers; Run starts each run from a fresh one.
type runtime struct {
	cfg      Config
	choice   RandSource    // Env.Rand: cfg.Choice, or else &rng
	obs      Observer      // scheduler's event tap, if it implements Observer
	injector FaultInjector // scheduler's fault channel, if it implements FaultInjector
	procs    []procState
	env      Env // per-step Env, rebuilt in place (objects must not retain it)
	maxSteps int
	steps    int
	seq      int
	faults   int  // fault directives applied, bounded by the step budget
	tracing  bool // events go into trace: the run is traced, or stepped
	trace    Trace
	recNames []string // sorted names of Recoverable objects, built lazily
	recBuilt bool
	// Scheduling-round buffers, rewritten every round: the views handed
	// to the scheduler alias them, and the final round's enabled set
	// surfaces as Result.Enabled.
	enabledIDs []int
	crashed    []int
	// The run's Result, whose Outputs and Status are sized at reset.
	res Result
	// Env.Rand when cfg.Choice is nil, and its source.
	rng rand.Rand
	src Source
}

// reset readies rt for a run of cfg's n processes, keeping the buffers
// of its last run: the process table, the round buffers, the trace and
// the Result's, which the last run's Result aliased.
func (rt *runtime) reset(cfg Config, n int) {
	procs, ids, outputs, status := rt.procs, rt.enabledIDs, rt.res.Outputs, rt.res.Status
	if cap(procs) < n {
		procs, ids = make([]procState, n), make([]int, 0, n)
		outputs, status = make([]Value, n), make([]ProcStatus, n)
	} else {
		clear(procs[:n])
	}
	*rt = runtime{
		cfg:        cfg,
		procs:      procs[:n],
		trace:      Trace{Events: rt.trace.Events[:0]},
		recNames:   rt.recNames[:0],
		enabledIDs: ids,
		crashed:    rt.crashed[:0],
		res:        Result{Outputs: outputs[:n], Status: status[:n]},
	}
}

func (rt *runtime) enabled() []int {
	ids := rt.enabledIDs[:0]
	for i := range rt.procs {
		if rt.procs[i].pending {
			ids = append(ids, i)
		}
	}
	rt.enabledIDs = ids
	return ids
}

// crashedIDs lists crashed-and-not-restarted processes in id order. Only
// called when a FaultInjector is present.
func (rt *runtime) crashedIDs() []int {
	ids := rt.crashed[:0]
	for i := range rt.procs {
		if p := &rt.procs[i]; p.status == StatusCrashed && p.w == nil {
			ids = append(ids, i)
		}
	}
	rt.crashed = ids
	return ids
}

// applyFaults applies one directive batch in order. Each directive counts
// against the step budget so an injector that crashes and restarts forever
// fails the run instead of hanging it.
func (rt *runtime) applyFaults(faults []Fault) error {
	for _, f := range faults {
		if f.Proc < 0 || f.Proc >= len(rt.procs) {
			return fmt.Errorf("%w: no process %d", ErrBadFault, f.Proc)
		}
		rt.faults++
		if rt.faults > rt.maxSteps {
			return fmt.Errorf("%w (fault budget %d)", ErrMaxSteps, rt.maxSteps)
		}
		var err error
		switch f.Kind {
		case FaultCrash:
			err = rt.crash(f.Proc)
		case FaultRestart:
			err = rt.restart(f.Proc)
		default:
			err = fmt.Errorf("%w: unknown fault kind %d for process %d", ErrBadFault, int(f.Kind), f.Proc)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// crash wipes process id's volatile state: its pending invocation (recorded
// in the EventCrash event, never applied), its incarnation with all program
// locals, and its per-process volatile state in every Recoverable object.
func (rt *runtime) crash(id int) error {
	p := &rt.procs[id]
	if !p.pending || p.w == nil {
		return fmt.Errorf("%w: crash of process %d with no pending invocation (status %v)", ErrBadFault, id, p.status)
	}
	obj, inv := p.w.msg.obj, p.w.msg.inv
	p.pending = false
	p.status = StatusCrashed
	rt.abort(p)
	rt.record(Event{
		Kind:   EventCrash,
		Proc:   id,
		Object: obj,
		Op:     inv.Op,
		Args:   inv.Args,
	})
	for _, name := range rt.recoverables() {
		rt.cfg.Objects[name].(Recoverable).OnCrash(id)
	}
	return nil
}

// restart brings a crashed process back amnesiacally: a fresh incarnation
// runs Config.Recovery (if any) and then the program from the top, under an
// incremented incarnation number. The restart settles like initial startup,
// so the process is parked at its first new invocation (or already done)
// before the next scheduling round.
func (rt *runtime) restart(id int) error {
	p := &rt.procs[id]
	if p.status != StatusCrashed || p.w != nil {
		return fmt.Errorf("%w: restart of process %d which is not crashed (status %v)", ErrBadFault, id, p.status)
	}
	p.incarnation++
	rt.record(Event{Kind: EventRestart, Proc: id, Out: p.incarnation})
	return rt.start(id)
}

// recoverables returns the sorted names of Recoverable objects, computed
// once per run; sorting keeps OnCrash callback order independent of map
// iteration order.
func (rt *runtime) recoverables() []string {
	if !rt.recBuilt {
		rt.recBuilt = true
		for name, o := range rt.cfg.Objects {
			if _, ok := o.(Recoverable); ok {
				rt.recNames = append(rt.recNames, name)
			}
		}
		sort.Strings(rt.recNames)
	}
	return rt.recNames
}

// step applies process id's pending invocation as one atomic step.
func (rt *runtime) step(id int) error {
	p := &rt.procs[id]
	m := &p.w.msg
	obj, ok := rt.cfg.Objects[m.obj]
	if !ok {
		return fmt.Errorf("%w: %q (process %d)", ErrUnknownObject, m.obj, id)
	}
	// The Env is rebuilt in place instead of allocated per step; Apply
	// must not retain it (see the Object contract).
	rt.env = Env{Proc: id, Step: rt.steps, Rand: rt.choice}
	resp, err := applyObject(obj, &rt.env, m.obj, m.inv)
	if err != nil {
		return err
	}
	rt.steps++
	p.pending = false
	rt.record(Event{
		Kind:   EventStep,
		Proc:   id,
		Object: m.obj,
		Op:     m.inv.Op,
		Args:   m.inv.Args,
		Out:    resp.Value,
		Hang:   resp.Effect == Hang,
	})
	if resp.Effect == Hang {
		p.status = StatusHung
		rt.abort(p)
		return nil
	}
	p.w.resume(resp.Value)
	return rt.settle(id)
}

// applyObject applies the invocation to the object registered as name,
// converting an object panic into an *ObjectPanicError.
func applyObject(obj Object, env *Env, name string, inv Invocation) (resp Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &ObjectPanicError{Object: name, Op: inv.Op, Value: r}
		}
	}()
	resp = obj.Apply(env, inv)
	return resp, nil
}

// start runs the process's current incarnation on a pooled worker and
// settles it.
func (rt *runtime) start(id int) error {
	p := &rt.procs[id]
	p.w = getWorker()
	p.w.start(id, p.incarnation, rt.cfg.Recovery, rt.cfg.Programs[id])
	return rt.settle(id)
}

// settle handles what process id yields until it parks at an invocation,
// finishes, or fails; a finished or failed incarnation's worker goes back
// to the pool.
func (rt *runtime) settle(id int) error {
	p := &rt.procs[id]
	for {
		m := &p.w.msg
		switch m.kind {
		case msgInvoke:
			p.pending = true
			return nil
		case msgMark:
			rt.record(Event{
				Kind:   m.mark,
				Proc:   id,
				Object: m.obj,
				Op:     m.inv.Op,
				Args:   m.inv.Args,
				Out:    m.out,
			})
			p.w.resume(nil)
		case msgDone:
			p.status = StatusDone
			p.output = m.out
			putWorker(p.w)
			p.w = nil
			return nil
		default: // msgPanic
			err := fmt.Errorf("%w: process %d: %v", ErrProgramPanic, id, m.out)
			p.status = StatusFailed
			putWorker(p.w)
			p.w = nil
			return err
		}
	}
}

func (rt *runtime) record(e Event) {
	e.Seq = rt.seq
	rt.seq++
	if rt.obs != nil {
		rt.obs.Observe(e)
	}
	if rt.tracing {
		rt.trace.Events = append(rt.trace.Events, e)
	}
}

// abort unwinds a parked process's incarnation and returns its worker to
// the pool.
func (rt *runtime) abort(p *procState) {
	if p.w == nil {
		return
	}
	w := p.w
	p.w = nil
	w.abort()
	putWorker(w)
}

// abortAll unwinds every process still parked.
func (rt *runtime) abortAll() {
	for i := range rt.procs {
		if p := &rt.procs[i]; p.w != nil {
			p.pending = false
			rt.abort(p)
		}
	}
}

// result builds the run's Result in rt's buffers. The processes in
// enabledAtStop, the final round's enabled set of a run its caller
// stopped, report StatusStopped. The trace is reported unless
// DisableTrace is set, when it is only a stepped run's record.
func (rt *runtime) result(enabledAtStop []int) *Result {
	res := &rt.res
	for i := range rt.procs {
		res.Outputs[i], res.Status[i] = rt.procs[i].output, rt.procs[i].status
	}
	for _, id := range enabledAtStop {
		res.Status[id] = StatusStopped
	}
	res.Enabled, res.Steps = enabledAtStop, rt.steps
	if !rt.cfg.DisableTrace {
		res.Trace = rt.trace
	}
	if rt.injector != nil {
		res.Restarts = make([]int, len(rt.procs))
		for i := range rt.procs {
			res.Restarts[i] = rt.procs[i].incarnation
		}
	}
	return res
}
