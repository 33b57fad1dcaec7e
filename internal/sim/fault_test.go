package sim

import (
	"errors"
	"reflect"
	"testing"
)

// testDurableCell is a Recoverable register: a durable value plus a volatile
// per-process staging slot ("stage" buffers, "flush" commits durably). It
// also keeps a durable log of values passed to "note", which recovery
// procedures in these tests use to report what they observed.
type testDurableCell struct {
	durable Value
	staged  map[int]Value
	notes   []Value
}

func (c *testDurableCell) Apply(env *Env, inv Invocation) Response {
	switch inv.Op {
	case "stage":
		if c.staged == nil {
			c.staged = make(map[int]Value)
		}
		c.staged[env.Proc] = inv.Arg(0)
		return Respond(nil)
	case "flush":
		if v, ok := c.staged[env.Proc]; ok {
			c.durable = v
			delete(c.staged, env.Proc)
		}
		return Respond(c.durable)
	case "read":
		return Respond(c.durable)
	case "peek":
		return Respond(c.staged[env.Proc])
	case "note":
		c.notes = append(c.notes, inv.Arg(0))
		return Respond(nil)
	}
	return HangCaller()
}

func (c *testDurableCell) OnCrash(proc int) { delete(c.staged, proc) }

// scriptInjector crashes victim once crashAt is reached and restarts it
// window steps later (or immediately once no other process is enabled);
// noRestart crashes without ever restarting.
type scriptInjector struct {
	inner     Scheduler
	victim    int
	crashAt   int
	window    int
	noRestart bool

	crashed   bool
	restarted bool
	crashStep int
}

func (s *scriptInjector) Next(v View) int { return s.inner.Next(v) }

func (s *scriptInjector) Faults(v View) []Fault {
	if !s.crashed && v.Step >= s.crashAt && v.EnabledSet(s.victim) {
		s.crashed = true
		s.crashStep = v.Step
		return []Fault{{Proc: s.victim, Kind: FaultCrash}}
	}
	if s.crashed && !s.restarted && !s.noRestart && v.CrashedSet(s.victim) &&
		(v.Step >= s.crashStep+s.window || len(v.Enabled) == 0) {
		s.restarted = true
		return []Fault{{Proc: s.victim, Kind: FaultRestart}}
	}
	return nil
}

func stageFlushRead(v int) Program {
	return func(ctx *Ctx) Value {
		ctx.Invoke("C", "stage", v)
		ctx.Invoke("C", "flush")
		return ctx.Invoke("C", "read")
	}
}

func TestCrashWipesVolatileStateAndRecoveryRuns(t *testing.T) {
	cell := &testDurableCell{}
	cfg := Config{
		Objects:  map[string]Object{"C": cell},
		Programs: []Program{stageFlushRead(42)},
		// After "stage" applies (step 0) the pending "flush" is wiped by
		// the crash at step 1; the lone-process truncation restarts
		// immediately.
		Scheduler: &scriptInjector{inner: NewRoundRobin(), victim: 0, crashAt: 1, window: 100},
		Recovery: func(ctx *Ctx) {
			ctx.Invoke("C", "note", ctx.Invoke("C", "peek"))
		},
		VerifyReplay: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllDone() {
		t.Fatalf("statuses = %v, want all done", res.Status)
	}
	if res.Outputs[0] != 42 {
		t.Errorf("output = %v, want 42 (program re-ran after restart)", res.Outputs[0])
	}
	if !reflect.DeepEqual(res.Restarts, []int{1}) {
		t.Errorf("restarts = %v, want [1]", res.Restarts)
	}
	// The staged slot was volatile: recovery's peek must have seen nil.
	if len(cell.notes) != 1 || cell.notes[0] != nil {
		t.Errorf("recovery notes = %v, want [<nil>] (staged value wiped)", cell.notes)
	}
	var kinds []EventKind
	for _, e := range res.Trace.Events {
		kinds = append(kinds, e.Kind)
	}
	// stage, crash(wiping flush), restart, note-recovery (peek+note),
	// then the full re-run.
	want := []EventKind{EventStep, EventCrash, EventRestart, EventStep, EventStep, EventStep, EventStep, EventStep}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event kinds = %v, want %v\n%s", kinds, want, res.Trace)
	}
	if e := res.Trace.Events[1]; e.Op != "flush" {
		t.Errorf("crash wiped %q, want the pending flush\n%s", e.Op, res.Trace)
	}
	if e := res.Trace.Events[2]; e.Out != 1 {
		t.Errorf("restart incarnation = %v, want 1", e.Out)
	}
}

// recrashInjector crashes its victim each time the step counter reaches
// the next threshold in crashAt (in order), restarting it immediately in
// the following fault round. Consecutive equal thresholds crash the
// restarted process again before it takes a single step — a crash
// during the recovery procedure itself.
type recrashInjector struct {
	inner   Scheduler
	victim  int
	crashAt []int
	next    int
}

func (r *recrashInjector) Next(v View) int { return r.inner.Next(v) }

func (r *recrashInjector) Faults(v View) []Fault {
	if v.CrashedSet(r.victim) {
		return []Fault{{Proc: r.victim, Kind: FaultRestart}}
	}
	if r.next < len(r.crashAt) && v.Step >= r.crashAt[r.next] && v.EnabledSet(r.victim) {
		r.next++
		return []Fault{{Proc: r.victim, Kind: FaultCrash}}
	}
	return nil
}

// TestCrashDuringRecoveryRestartsRecoveryFromTop pins the nesting
// semantics of a fault landing while a RecoveryProc is mid-flight: the
// pending recovery invocation is wiped exactly like a program
// invocation, the next incarnation runs the recovery procedure again
// from the top, and nothing of the interrupted recovery survives except
// what it already committed durably. Recovery is not atomic — it is
// ordinary lockstep code — and must itself be written idempotently.
func TestCrashDuringRecoveryRestartsRecoveryFromTop(t *testing.T) {
	cell := &testDurableCell{}
	cfg := Config{
		Objects:  map[string]Object{"C": &testDurableCell{}, "D": cell},
		Programs: []Program{stageFlushRead(42)},
		// Step 0 applies "stage"; the crash at step 1 wipes the pending
		// "flush". Incarnation 1's recovery notes its incarnation (step 1)
		// and is then crashed with its "peek" pending — mid-recovery.
		// Incarnation 2 re-runs recovery from the top, completes it, and
		// re-runs the program.
		Scheduler: &recrashInjector{inner: NewRoundRobin(), victim: 0, crashAt: []int{1, 2}},
		Recovery: func(ctx *Ctx) {
			ctx.Invoke("D", "note", ctx.Incarnation())
			ctx.Invoke("D", "peek")
		},
		VerifyReplay: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllDone() {
		t.Fatalf("statuses = %v, want all done", res.Status)
	}
	if res.Outputs[0] != 42 {
		t.Errorf("output = %v, want 42 (program re-ran after the second restart)", res.Outputs[0])
	}
	if !reflect.DeepEqual(res.Restarts, []int{2}) {
		t.Errorf("restarts = %v, want [2]", res.Restarts)
	}
	// Each incarnation's recovery entered from the top: the durable note
	// log shows incarnation 1 (interrupted after its first step) and then
	// incarnation 2 (which ran to completion).
	if want := []Value{1, 2}; !reflect.DeepEqual(cell.notes, want) {
		t.Errorf("recovery notes = %v, want %v (recovery re-runs from the top)", cell.notes, want)
	}
	var kinds []EventKind
	for _, e := range res.Trace.Events {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{
		EventStep,    // stage
		EventCrash,   // wipes pending flush
		EventRestart, // incarnation 1
		EventStep,    // recovery: note(1)
		EventCrash,   // mid-recovery: wipes pending peek
		EventRestart, // incarnation 2
		EventStep,    // recovery: note(2)
		EventStep,    // recovery: peek
		EventStep,    // stage
		EventStep,    // flush
		EventStep,    // read
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event kinds = %v, want %v\n%s", kinds, want, res.Trace)
	}
	// The second crash's wiped invocation is the recovery's own pending
	// step, recorded like any other.
	if e := res.Trace.Events[4]; e.Object != "D" || e.Op != "peek" {
		t.Errorf("mid-recovery crash wiped %s.%q, want D.\"peek\"\n%s", e.Object, e.Op, res.Trace)
	}
	if e := res.Trace.Events[5]; e.Out != 2 {
		t.Errorf("second restart incarnation = %v, want 2", e.Out)
	}
}

func TestCrashWithoutRestartEndsCrashed(t *testing.T) {
	cfg := Config{
		Objects:      map[string]Object{"C": &testDurableCell{}},
		Programs:     []Program{stageFlushRead(1), stageFlushRead(2)},
		Scheduler:    &scriptInjector{inner: NewRoundRobin(), victim: 0, crashAt: 2, noRestart: true},
		VerifyReplay: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Status[0] != StatusCrashed || res.Status[1] != StatusDone {
		t.Fatalf("statuses = %v, want [crashed done]", res.Status)
	}
	if res.Outputs[0] != nil {
		t.Errorf("crashed process produced output %v", res.Outputs[0])
	}
	if !reflect.DeepEqual(res.Restarts, []int{0, 0}) {
		t.Errorf("restarts = %v, want [0 0]", res.Restarts)
	}
}

func TestIncarnationVisibleToPrograms(t *testing.T) {
	cfg := Config{
		Objects: map[string]Object{"C": &testDurableCell{}},
		Programs: []Program{func(ctx *Ctx) Value {
			ctx.Invoke("C", "stage", ctx.ID())
			ctx.Invoke("C", "flush")
			return ctx.Incarnation()
		}},
		Scheduler:    &scriptInjector{inner: NewRoundRobin(), victim: 0, crashAt: 1, window: 0},
		VerifyReplay: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Outputs[0] != 1 {
		t.Errorf("output = %v, want incarnation 1", res.Outputs[0])
	}
}

func TestBadFaultDirectives(t *testing.T) {
	// Crashing a process that already finished is rejected.
	_, err := Run(Config{
		Objects:   map[string]Object{"C": &testDurableCell{}},
		Programs:  []Program{stageFlushRead(1)},
		Scheduler: Func(func(v View) int { return v.Enabled[0] }),
	})
	if err != nil {
		t.Fatalf("baseline Run: %v", err)
	}
	for name, faults := range map[string][]Fault{
		"crash out of range":     {{Proc: 7, Kind: FaultCrash}},
		"restart of non-crashed": {{Proc: 0, Kind: FaultRestart}},
		"unknown kind":           {{Proc: 0, Kind: FaultKind(9)}},
	} {
		fs := faults
		inj := &onceInjector{faults: fs}
		_, err := Run(Config{
			Objects:   map[string]Object{"C": &testDurableCell{}},
			Programs:  []Program{stageFlushRead(1)},
			Scheduler: inj,
		})
		if !errors.Is(err, ErrBadFault) {
			t.Errorf("%s: err = %v, want ErrBadFault", name, err)
		}
	}
}

// onceInjector issues its batch on the first Faults call, then schedules
// round-robin.
type onceInjector struct {
	faults []Fault
	fired  bool
	rr     RoundRobin
}

func (o *onceInjector) Next(v View) int { return o.rr.Next(v) }

func (o *onceInjector) Faults(v View) []Fault {
	if o.fired {
		return nil
	}
	o.fired = true
	return o.faults
}

// thrashInjector crashes and restarts process 0 forever without ever
// letting it run; the fault budget must stop the run.
type thrashInjector struct{ rr RoundRobin }

func (th *thrashInjector) Next(v View) int { return th.rr.Next(v) }

func (th *thrashInjector) Faults(v View) []Fault {
	if v.EnabledSet(0) {
		return []Fault{{Proc: 0, Kind: FaultCrash}}
	}
	if v.CrashedSet(0) {
		return []Fault{{Proc: 0, Kind: FaultRestart}}
	}
	return nil
}

func TestFaultBudgetBoundsCrashRestartLoops(t *testing.T) {
	_, err := Run(Config{
		Objects:   map[string]Object{"C": &testDurableCell{}},
		Programs:  []Program{stageFlushRead(1)},
		Scheduler: &thrashInjector{},
		MaxSteps:  64,
	})
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps from the fault budget", err)
	}
}

// namedRecoverable records OnCrash callbacks into a shared log to observe
// callback order.
type namedRecoverable struct {
	name string
	log  *[]string
}

func (n *namedRecoverable) Apply(_ *Env, inv Invocation) Response { return Respond(nil) }
func (n *namedRecoverable) OnCrash(proc int)                      { *n.log = append(*n.log, n.name) }

func TestOnCrashRunsInSortedNameOrder(t *testing.T) {
	var log []string
	objs := map[string]Object{
		"zeta":  &namedRecoverable{name: "zeta", log: &log},
		"alpha": &namedRecoverable{name: "alpha", log: &log},
		"mid":   &namedRecoverable{name: "mid", log: &log},
	}
	cfg := Config{
		Objects: objs,
		Programs: []Program{func(ctx *Ctx) Value {
			ctx.Invoke("alpha", "touch")
			return ctx.Invoke("mid", "touch")
		}},
		Scheduler: &scriptInjector{inner: NewRoundRobin(), victim: 0, crashAt: 1, window: 0},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []string{"alpha", "mid", "zeta"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("OnCrash order = %v, want %v", log, want)
	}
}

func TestCrashRestartDeterministicTrace(t *testing.T) {
	run := func() string {
		cfg := Config{
			Objects:  map[string]Object{"C": &testDurableCell{}},
			Programs: []Program{stageFlushRead(10), stageFlushRead(20), stageFlushRead(30)},
			Scheduler: &scriptInjector{
				inner: NewRandom(7), victim: 1, crashAt: 3, window: 4,
			},
			VerifyReplay: true,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Trace.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("crash-restart run not reproducible:\n--- first\n%s--- second\n%s", a, b)
	}
}

func TestReplayCatchesStateSmuggledAcrossIncarnations(t *testing.T) {
	// The program routes state through a closure variable instead of a
	// durable object; incarnations observe different values, so the
	// post-run replay (which re-executes each incarnation with the same
	// closure) must diverge.
	calls := 0
	cfg := Config{
		Objects: map[string]Object{"C": &testDurableCell{}},
		Programs: []Program{func(ctx *Ctx) Value {
			calls++
			if calls > 1 {
				return ctx.Invoke("C", "read")
			}
			ctx.Invoke("C", "stage", 1)
			ctx.Invoke("C", "flush")
			return ctx.Invoke("C", "read")
		}},
		Scheduler:    &scriptInjector{inner: NewRoundRobin(), victim: 0, crashAt: 1, window: 0},
		VerifyReplay: true,
	}
	_, err := Run(cfg)
	if !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("err = %v, want ErrReplayDivergence", err)
	}
}

// bracketed stages v() in C, flushes and reads it inside a BeginOp and
// EndOp pair.
func bracketed(v func() Value) Program {
	return func(ctx *Ctx) Value {
		ctx.BeginOp("L", "put")
		ctx.Invoke("C", "stage", v())
		ctx.Invoke("C", "flush")
		out := ctx.Invoke("C", "read")
		ctx.EndOp("L", "put", out)
		return out
	}
}

// faultedConfig is the configuration FuzzVerifyReplayUnderFaults runs,
// with first as process 0. Process 1 is bracketed too, and process 2
// counts on H, whose budget a restarted process 2 can exhaust and hang
// on. Recovery notes the incarnation in C. Under a random scheduler
// drawing from seed, the adversary crashes victim at step crashAt and
// either never restarts it, or restarts it window steps later, or, with
// recrash > 0, restarts it at once and crashes it again at step
// crashAt+recrash−1: recrash 1 crashes it in its recovery.
func faultedConfig(first Program, seed int64, victim, crashAt, recrash, window uint8, restart bool) Config {
	v, inner := int(victim%3), NewRandom(seed)
	var sched Scheduler = &scriptInjector{inner: inner, victim: v, crashAt: int(crashAt), window: int(window % 8), noRestart: !restart}
	if restart && recrash%4 > 0 {
		sched = &recrashInjector{inner: inner, victim: v, crashAt: []int{int(crashAt), int(crashAt) + int(recrash%4) - 1}}
	}
	return Config{
		Objects: map[string]Object{"C": &testDurableCell{}, "H": &testCounter{budget: 4}},
		Programs: []Program{
			first,
			bracketed(func() Value { return 1 }),
			func(ctx *Ctx) Value {
				ctx.Invoke("H", "inc")
				ctx.Invoke("H", "inc")
				return ctx.Invoke("H", "read")
			},
		},
		Scheduler: sched,
		Recovery:  func(ctx *Ctx) { ctx.Invoke("C", "note", ctx.Incarnation()) },
	}
}

// FuzzVerifyReplayUnderFaults: under fuzzed crashes and restarts, a run
// of pure programs passes VerifyReplay and reports the Result it reports
// without it, and the same run with process 0 passing its execution
// count in its first invocation fails it.
func FuzzVerifyReplayUnderFaults(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(255), uint8(0), uint8(0), true) // no fault
	f.Add(int64(2), uint8(0), uint8(2), uint8(0), uint8(0), false)  // a crash, never restarted
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint8(0), true)   // a crash during recovery
	f.Add(int64(1), uint8(2), uint8(3), uint8(0), uint8(1), true)   // process 2 restarts and hangs
	f.Fuzz(func(t *testing.T, seed int64, victim, crashAt, recrash, window uint8, restart bool) {
		run := func(first Program, verify bool) (*Result, error) {
			cfg := faultedConfig(first, seed, victim, crashAt, recrash, window, restart)
			cfg.VerifyReplay = verify
			return Run(cfg)
		}
		pure := bracketed(func() Value { return 0 })
		want, err := run(pure, false)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		got, err := run(pure, true)
		if err != nil {
			t.Fatalf("verified run: %v\n%s", err, want.Trace)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("verified run reports %+v, the run without verification %+v", got, want)
		}
		calls := 0
		_, err = run(bracketed(func() Value { calls++; return calls }), true)
		if !errors.Is(err, ErrReplayDivergence) {
			t.Fatalf("verified run with process 0 passing its execution count: err = %v, want ErrReplayDivergence\n%s", err, want.Trace)
		}
	})
}
