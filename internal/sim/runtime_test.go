package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"strings"
	"testing"
	"testing/quick"
)

// testCounter is a shared counter with inc and read operations, plus an
// optional budget after which further operations hang the caller.
type testCounter struct {
	n      int
	budget int // 0 means unlimited
	used   int
}

func (c *testCounter) Apply(_ *Env, inv Invocation) Response {
	if c.budget > 0 {
		c.used++
		if c.used > c.budget {
			return HangCaller()
		}
	}
	switch inv.Op {
	case "inc":
		c.n++
		return Respond(nil)
	case "read":
		return Respond(c.n)
	default:
		panic(fmt.Sprintf("testCounter: unknown op %q", inv.Op))
	}
}

func incThenRead(times int) Program {
	return func(ctx *Ctx) Value {
		for i := 0; i < times; i++ {
			ctx.Invoke("C", "inc")
		}
		return ctx.Invoke("C", "read")
	}
}

func TestRunBasicCounter(t *testing.T) {
	cfg := Config{
		Objects:  map[string]Object{"C": &testCounter{}},
		Programs: []Program{incThenRead(3), incThenRead(2)},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllDone() {
		t.Fatalf("not all processes finished: %v", res.Status)
	}
	// Both processes increment; the last read must see all 5 increments.
	last := res.Outputs[0]
	if v := res.Outputs[1]; v.(int) > last.(int) {
		last = v
	}
	if last.(int) != 5 {
		t.Errorf("max read = %v, want 5", last)
	}
	if res.Steps != 7 {
		t.Errorf("steps = %d, want 7", res.Steps)
	}
}

func TestRunNoPrograms(t *testing.T) {
	if _, err := Run(Config{}); !errors.Is(err, ErrNoPrograms) {
		t.Fatalf("err = %v, want ErrNoPrograms", err)
	}
}

func TestRunUnknownObject(t *testing.T) {
	cfg := Config{
		Objects:  map[string]Object{},
		Programs: []Program{func(ctx *Ctx) Value { return ctx.Invoke("nope", "read") }},
	}
	if _, err := Run(cfg); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v, want ErrUnknownObject", err)
	}
}

func TestRunProgramPanic(t *testing.T) {
	cfg := Config{
		Objects: map[string]Object{"C": &testCounter{}},
		Programs: []Program{func(ctx *Ctx) Value {
			ctx.Invoke("C", "inc")
			panic("boom")
		}},
	}
	if _, err := Run(cfg); !errors.Is(err, ErrProgramPanic) {
		t.Fatalf("err = %v, want ErrProgramPanic", err)
	}
}

func TestRunMaxSteps(t *testing.T) {
	cfg := Config{
		Objects: map[string]Object{"C": &testCounter{}},
		Programs: []Program{func(ctx *Ctx) Value {
			for {
				ctx.Invoke("C", "inc")
			}
		}},
		MaxSteps: 10,
	}
	if _, err := Run(cfg); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
}

func TestRunHangSemantics(t *testing.T) {
	// Budget of 3 operations: the first three succeed, the fourth caller
	// hangs forever while the rest of the system keeps running.
	cfg := Config{
		Objects: map[string]Object{
			"C": &testCounter{budget: 3},
			"D": &testCounter{},
		},
		Programs: []Program{
			incThenRead(4), // will hang on its 4th operation on C at the latest
			func(ctx *Ctx) Value { return ctx.Invoke("D", "read") },
		},
		Scheduler: Priority{0, 1},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Status[0] != StatusHung {
		t.Errorf("process 0 status = %v, want hung", res.Status[0])
	}
	if res.Status[1] != StatusDone {
		t.Errorf("process 1 status = %v, want done", res.Status[1])
	}
	if res.Outputs[0] != nil {
		t.Errorf("hung process produced output %v", res.Outputs[0])
	}
}

func TestRunStopScheduler(t *testing.T) {
	cfg := Config{
		Objects:   map[string]Object{"C": &testCounter{}},
		Programs:  []Program{incThenRead(5), incThenRead(5)},
		Scheduler: NewFixed(0, 0, 1),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Steps != 3 {
		t.Errorf("steps = %d, want 3", res.Steps)
	}
	wantEnabled := []int{0, 1}
	if len(res.Enabled) != 2 || res.Enabled[0] != wantEnabled[0] || res.Enabled[1] != wantEnabled[1] {
		t.Errorf("enabled = %v, want %v", res.Enabled, wantEnabled)
	}
	for i, st := range res.Status {
		if st != StatusStopped {
			t.Errorf("process %d status = %v, want stopped", i, st)
		}
	}
}

func TestRunBadSchedule(t *testing.T) {
	cfg := Config{
		Objects:   map[string]Object{"C": &testCounter{}},
		Programs:  []Program{incThenRead(1), incThenRead(1)},
		Scheduler: Func(func(View) int { return 7 }),
	}
	_, err := Run(cfg)
	if !errors.Is(err, ErrBadSchedule) {
		t.Fatalf("err = %v, want ErrBadSchedule", err)
	}
	// The error must name the enabled set, so a bad adversary is
	// debuggable from the message alone.
	if want := "(enabled: [0 1])"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %q, want it to contain %q", err, want)
	}
}

// observingScheduler records every observed event kind and defers to
// round-robin for scheduling.
type observingScheduler struct {
	RoundRobin
	seen []Event
}

func (o *observingScheduler) Observe(e Event) { o.seen = append(o.seen, e) }

func TestSchedulerObserverSeesEvents(t *testing.T) {
	marked := func(ctx *Ctx) Value {
		ctx.BeginOp("L", "op")
		ctx.Invoke("C", "inc")
		v := ctx.Invoke("C", "read")
		ctx.EndOp("L", "op", v)
		return v
	}
	obs := &observingScheduler{}
	res, err := Run(Config{
		Objects:   map[string]Object{"C": &testCounter{}},
		Programs:  []Program{marked, marked},
		Scheduler: obs,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(obs.seen) != res.Trace.Len() {
		t.Fatalf("observer saw %d events, trace has %d", len(obs.seen), res.Trace.Len())
	}
	for i, e := range obs.seen {
		if e.String() != res.Trace.Events[i].String() {
			t.Fatalf("event %d: observer saw %s, trace records %s", i, e, res.Trace.Events[i])
		}
	}
}

func TestSchedulerObserverWithDisabledTrace(t *testing.T) {
	// Observation is independent of trace recording: adversaries keep
	// working in benchmark-style runs.
	obs := &observingScheduler{}
	res, err := Run(Config{
		Objects:      map[string]Object{"C": &testCounter{}},
		Programs:     []Program{incThenRead(2)},
		Scheduler:    obs,
		DisableTrace: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Trace.Len() != 0 {
		t.Fatalf("trace recorded %d events despite DisableTrace", res.Trace.Len())
	}
	if len(obs.seen) != 3 {
		t.Fatalf("observer saw %d events, want 3", len(obs.seen))
	}
}

func TestRunDeterministicTrace(t *testing.T) {
	mk := func() Config {
		return Config{
			Objects:   map[string]Object{"C": &testCounter{}},
			Programs:  []Program{incThenRead(4), incThenRead(4), incThenRead(4)},
			Scheduler: NewRandom(42),
		}
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Trace.String() != b.Trace.String() {
		t.Errorf("same seed produced different traces:\n%s\nvs\n%s", a.Trace, b.Trace)
	}
	if a.Trace.Len() == 0 {
		t.Error("trace is empty")
	}
}

func TestRunDisableTrace(t *testing.T) {
	cfg := Config{
		Objects:      map[string]Object{"C": &testCounter{}},
		Programs:     []Program{incThenRead(2)},
		DisableTrace: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Trace.Len() != 0 {
		t.Errorf("trace recorded despite DisableTrace: %d events", res.Trace.Len())
	}
}

func TestRunMarks(t *testing.T) {
	cfg := Config{
		Objects: map[string]Object{"C": &testCounter{}},
		Programs: []Program{func(ctx *Ctx) Value {
			ctx.BeginOp("logical", "op", 1)
			ctx.Invoke("C", "inc")
			ctx.EndOp("logical", "op", "result")
			return nil
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	evs := res.Trace.Events
	if len(evs) != 3 {
		t.Fatalf("trace length = %d, want 3:\n%s", len(evs), res.Trace)
	}
	if evs[0].Kind != EventCall || evs[1].Kind != EventStep || evs[2].Kind != EventReturn {
		t.Errorf("event kinds = %v %v %v, want call step return", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
	if evs[0].Seq >= evs[1].Seq || evs[1].Seq >= evs[2].Seq {
		t.Errorf("sequence numbers not increasing: %d %d %d", evs[0].Seq, evs[1].Seq, evs[2].Seq)
	}
	if evs[2].Out != "result" {
		t.Errorf("return mark out = %v, want %q", evs[2].Out, "result")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	rr := NewRoundRobin()
	view := View{Enabled: []int{0, 2, 5}}
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, rr.Next(view))
	}
	want := []int{0, 2, 5, 0, 2, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin order = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsDisabled(t *testing.T) {
	rr := NewRoundRobin()
	if id := rr.Next(View{Enabled: []int{1, 3}}); id != 1 {
		t.Fatalf("first pick = %d, want 1", id)
	}
	// Process 3 vanished; wrap back to 1.
	if id := rr.Next(View{Enabled: []int{1}}); id != 1 {
		t.Fatalf("second pick = %d, want 1", id)
	}
}

func TestFixedSkipsDisabledEntries(t *testing.T) {
	f := NewFixed(3, 0, 1)
	if id := f.Next(View{Enabled: []int{0, 1}}); id != 0 {
		t.Fatalf("pick = %d, want 0 (entry 3 skipped)", id)
	}
	if id := f.Next(View{Enabled: []int{0, 1}}); id != 1 {
		t.Fatalf("pick = %d, want 1", id)
	}
	if id := f.Next(View{Enabled: []int{0, 1}}); id != Stop {
		t.Fatalf("pick = %d, want Stop", id)
	}
}

func TestFixedFallback(t *testing.T) {
	f := &Fixed{Order: []int{1}, Fallback: NewRoundRobin()}
	if id := f.Next(View{Enabled: []int{0, 1}}); id != 1 {
		t.Fatalf("pick = %d, want 1", id)
	}
	if id := f.Next(View{Enabled: []int{0, 1}}); id == Stop {
		t.Fatal("fallback did not take over")
	}
}

func TestPrioritySoloRun(t *testing.T) {
	cfg := Config{
		Objects:   map[string]Object{"C": &testCounter{}},
		Programs:  []Program{incThenRead(3), incThenRead(3)},
		Scheduler: Priority{1, 0},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Process 1 runs solo first, so its read sees exactly its own 3 incs.
	if res.Outputs[1].(int) != 3 {
		t.Errorf("solo process read %v, want 3", res.Outputs[1])
	}
	if res.Outputs[0].(int) != 6 {
		t.Errorf("second process read %v, want 6", res.Outputs[0])
	}
}

func TestViewEnabledSet(t *testing.T) {
	v := View{Enabled: []int{1, 4}}
	if !v.EnabledSet(4) || v.EnabledSet(2) {
		t.Errorf("EnabledSet misbehaves on %v", v.Enabled)
	}
}

func TestIndexedName(t *testing.T) {
	if got := Indexed("R", 3); got != "R[3]" {
		t.Errorf("Indexed = %q, want R[3]", got)
	}
	// Object names are map keys, so Indexed must keep fmt's rendering
	// byte for byte.
	for _, i := range []int{math.MinInt, -12, -1, 0, 7, 10, 123456, math.MaxInt} {
		if got, want := Indexed("R", i), fmt.Sprintf("%s[%d]", "R", i); got != want {
			t.Errorf("Indexed(R, %d) = %q, want %q", i, got, want)
		}
	}
}

func TestInvocationString(t *testing.T) {
	inv := Invocation{Op: "WRN", Args: []Value{1, "v"}}
	if got := inv.String(); got != "WRN(1, v)" {
		t.Errorf("String = %q", got)
	}
	if got := (Invocation{Op: "scan"}).String(); got != "scan()" {
		t.Errorf("String = %q", got)
	}
}

func TestInvocationArg(t *testing.T) {
	inv := Invocation{Op: "w", Args: []Value{7}}
	if inv.Arg(0) != 7 || inv.Arg(1) != nil || inv.Arg(-1) != nil {
		t.Error("Arg bounds handling incorrect")
	}
}

func TestTraceFilters(t *testing.T) {
	cfg := Config{
		Objects: map[string]Object{
			"C": &testCounter{},
			"D": &testCounter{},
		},
		Programs: []Program{
			func(ctx *Ctx) Value { ctx.Invoke("C", "inc"); return ctx.Invoke("D", "read") },
			func(ctx *Ctx) Value { return ctx.Invoke("C", "read") },
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.Trace.ByObject("D").Len(); got != 1 {
		t.Errorf("ByObject(D) = %d events, want 1", got)
	}
	if got := res.Trace.Steps(); got != 3 {
		t.Errorf("Steps = %d, want 3", got)
	}
}

// TestQuickSchedulingIndependence checks, over random process counts and
// seeds, that the final counter value equals the total number of
// increments regardless of interleaving — i.e. the simulator loses no
// steps and applies each exactly once.
func TestQuickSchedulingIndependence(t *testing.T) {
	f := func(rawProcs uint8, rawIncs uint8, seed int64) bool {
		procs := int(rawProcs%5) + 1
		incs := int(rawIncs%7) + 1
		programs := make([]Program, procs)
		for i := range programs {
			programs[i] = incThenRead(incs)
		}
		cfg := Config{
			Objects:   map[string]Object{"C": &testCounter{}},
			Programs:  programs,
			Scheduler: NewRandom(seed),
		}
		res, err := Run(cfg)
		if err != nil {
			return false
		}
		max := 0
		for _, out := range res.Outputs {
			if v := out.(int); v > max {
				max = v
			}
		}
		return max == procs*incs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestProcStatusString(t *testing.T) {
	cases := map[ProcStatus]string{
		StatusDone:    "done",
		StatusHung:    "hung",
		StatusStopped: "stopped",
		StatusFailed:  "failed",
		ProcStatus(9): "ProcStatus(9)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("ProcStatus(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if EventStep.String() != "step" || EventCall.String() != "call" || EventReturn.String() != "return" {
		t.Error("EventKind.String misbehaves")
	}
	if EventKind(9).String() != "EventKind(9)" {
		t.Error("EventKind.String default case misbehaves")
	}
}

// panicObject panics on every Apply.
type panicObject struct{}

func (panicObject) Apply(*Env, Invocation) Response { panic("illegal") }

func TestRunObjectPanicBecomesError(t *testing.T) {
	cfg := Config{
		Objects:  map[string]Object{"X": panicObject{}},
		Programs: []Program{func(ctx *Ctx) Value { return ctx.Invoke("X", "op") }},
	}
	_, err := Run(cfg)
	if !errors.Is(err, ErrObjectPanic) {
		t.Fatalf("err = %v, want ErrObjectPanic", err)
	}
	var ope *ObjectPanicError
	if !errors.As(err, &ope) {
		t.Fatalf("err = %v, want *ObjectPanicError", err)
	}
	if ope.Object != "X" || ope.Op != "op" || ope.Value != "illegal" {
		t.Errorf("ObjectPanicError = %+v", ope)
	}
}

// choiceProbe returns the value drawn from Env.Rand.
type choiceProbe struct{}

func (choiceProbe) Apply(env *Env, _ Invocation) Response {
	return Respond(env.Rand.Intn(100))
}

// fixedChoice always returns its value.
type fixedChoice int

func (f fixedChoice) Intn(n int) int { return int(f) % n }

func TestRunChoiceOverride(t *testing.T) {
	cfg := Config{
		Objects:  map[string]Object{"X": choiceProbe{}},
		Programs: []Program{func(ctx *Ctx) Value { return ctx.Invoke("X", "draw") }},
		Choice:   fixedChoice(42),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Outputs[0] != 42 {
		t.Errorf("draw = %v, want 42 via Choice override", res.Outputs[0])
	}
}

func TestCrashingScheduler(t *testing.T) {
	cfg := Config{
		Objects:   map[string]Object{"C": &testCounter{}},
		Programs:  []Program{incThenRead(2), incThenRead(2), incThenRead(2)},
		Scheduler: NewCrashing(NewRandom(3), 1),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Status[1] != StatusStopped {
		t.Errorf("crashed process status = %v, want stopped", res.Status[1])
	}
	if res.Status[0] != StatusDone || res.Status[2] != StatusDone {
		t.Errorf("live processes did not finish: %v", res.Status)
	}
	// The crashed process took no steps after its crash: it contributed at
	// most 0 increments (it was crashed from the start).
	if got := res.Outputs[0].(int) + res.Outputs[2].(int); got == 0 {
		t.Error("live processes made no progress")
	}
}

func TestCrashingAllCrashedStops(t *testing.T) {
	cfg := Config{
		Objects:   map[string]Object{"C": &testCounter{}},
		Programs:  []Program{incThenRead(2)},
		Scheduler: NewCrashing(nil, 0),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Steps != 0 || res.Status[0] != StatusStopped {
		t.Errorf("steps=%d status=%v, want immediate stop", res.Steps, res.Status[0])
	}
}

func TestCrashingInnerStopRespected(t *testing.T) {
	cfg := Config{
		Objects:   map[string]Object{"C": &testCounter{}},
		Programs:  []Program{incThenRead(5), incThenRead(5)},
		Scheduler: NewCrashing(NewFixed(0, 0), 1),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Steps != 2 {
		t.Errorf("steps = %d, want 2 (inner Fixed exhausted)", res.Steps)
	}
}

// drawer is an object whose every step draws Intn(n) for each n in bounds
// from Env.Rand and appends the draws to got.
type drawer struct {
	bounds []int
	got    []int
}

func (d *drawer) Apply(env *Env, _ Invocation) Response {
	for _, n := range d.bounds {
		d.got = append(d.got, env.Rand.Intn(n))
	}
	return Respond(nil)
}

func drawTwice(ctx *Ctx) Value {
	ctx.Invoke("R", "draw")
	return ctx.Invoke("R", "draw")
}

// TestEnvRandMatchesSeededSource pins Env.Rand's stream: without a
// Choice, every draw an object makes is the draw of
// rand.New(rand.NewSource(Config.Seed)), across steps, for bounds on both
// sides of 1<<31 and for seeds the source normalizes (0, negative, past
// 1<<31-1).
func TestEnvRandMatchesSeededSource(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 1 << 20, 1 << 40}
	for _, seed := range []int64{0, 1, -1, 89482311, 1<<31 - 1, 1<<40 + 3, math.MinInt64} {
		d := &drawer{bounds: bounds}
		_, err := Run(Config{
			Objects:  map[string]Object{"R": d},
			Programs: []Program{drawTwice},
			Seed:     seed,
		})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		want := rand.New(rand.NewSource(seed))
		for i, got := range d.got {
			if w := want.Intn(bounds[i%len(bounds)]); got != w {
				t.Errorf("seed %d: draw %d = %d, want %d", seed, i, got, w)
			}
		}
		if len(d.got) != 2*len(bounds) {
			t.Errorf("seed %d: %d draws, want %d", seed, len(d.got), 2*len(bounds))
		}
	}
}

// TestRunSeedsEnvRandInPlace: Env.Rand and its Source live in the run's
// runtime and seed in O(1), so a run that draws inside the Source's
// closed-form prefix (2 draws) allocates exactly as many objects as a run
// that never draws, and a run that draws past it (300 draws) allocates
// exactly one more: the register, built once on draw 274. The random
// scheduler's Source holds no register either, and it and the rand.Rand
// live in the scheduler: NewRandom plus 64 draws allocates one object, a
// small fraction of a seeded math/rand source's 5,376 bytes.
func TestRunSeedsEnvRandInPlace(t *testing.T) {
	allocs := func(draws int) float64 {
		bounds := make([]int, draws/2)
		for i := range bounds {
			bounds[i] = 2 + i
		}
		got := make([]int, 0, draws)
		return testing.AllocsPerRun(50, func() {
			d := &drawer{bounds: bounds, got: got}
			cfg := Config{Objects: map[string]Object{"R": d}, Programs: []Program{drawTwice}, Seed: 1}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if len(d.got) != draws {
				t.Fatalf("%d draws, want %d", len(d.got), draws)
			}
		})
	}
	never := allocs(0)
	if short := allocs(2); short != never {
		t.Errorf("a run that draws 2 values allocates %v objects, one that never draws %v", short, never)
	}
	if long := allocs(300); long != never+1 {
		t.Errorf("a run that draws 300 values allocates %v objects, one that never draws %v; want exactly one more, the register", long, never)
	}

	enabled := View{Enabled: []int{0, 1, 2, 3, 4}}
	seeded := func() {
		r := NewRandom(7)
		for i := 0; i < 64; i++ {
			r.Next(enabled)
		}
		schedSink = r
	}
	if objects := testing.AllocsPerRun(100, seeded); objects != 1 {
		t.Errorf("NewRandom plus 64 draws allocates %v objects, want 1: the scheduler, holding its Source and rand.Rand", objects)
	}
	if bytes := bytesPerRun(100, seeded); bytes >= 256 {
		t.Errorf("NewRandom plus 64 draws allocates %d bytes, want under 256", bytes)
	}
}

// schedSink keeps the scheduler TestRunSeedsEnvRandInPlace builds on the
// heap, where NewRandom's callers keep theirs.
var schedSink Scheduler

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	f()
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	before := m.TotalAlloc
	for i := 0; i < runs; i++ {
		f()
	}
	goruntime.ReadMemStats(&m)
	return (m.TotalAlloc - before) / uint64(runs)
}

// TestRewindRefusals: a run whose scheduler observes events or injects
// faults keeps scheduler state no log captures, so it refuses to
// rewind; no run rewinds to a step it has not reached; and a refused
// rewind leaves the run as it was.
func TestRewindRefusals(t *testing.T) {
	start := func(sched Scheduler) *Stepper {
		st := &Stepper{}
		err := st.Start(Config{
			Objects:   map[string]Object{"C": &testCounter{}},
			Programs:  []Program{incThenRead(1), incThenRead(1)},
			Scheduler: sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{0, 1} {
			if err := st.Step(id); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	for _, sched := range []Scheduler{&observingScheduler{}, &onceInjector{}} {
		st := start(sched)
		err := st.Rewind(1, map[string]Object{"C": &testCounter{}})
		st.Stop()
		if !errors.Is(err, errRewindFaulty) {
			t.Errorf("rewind under a %T: err = %v, want %v", sched, err, errRewindFaulty)
		}
	}
	st := start(nil)
	defer st.Stop()
	for _, to := range []int{-1, 3} {
		if err := st.Rewind(to, map[string]Object{"C": &testCounter{}}); !errors.Is(err, errRewindRange) {
			t.Errorf("rewind of a 2-step run to %d: err = %v, want %v", to, err, errRewindRange)
		}
	}
	if err := st.Rewind(1, map[string]Object{"C": &testCounter{}}); err != nil {
		t.Fatalf("rewind to 1 after the refusals: %v", err)
	}
	for _, id := range []int{1, 0, 1} {
		if err := st.Step(id); err != nil {
			t.Fatalf("stepping %d after the rewind: %v", id, err)
		}
	}
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 2 || res.Outputs[1] != 2 || res.Steps != 4 {
		t.Fatalf("outputs %v after %d steps, want [2 2] after 4", res.Outputs, res.Steps)
	}
}
