package sim

import (
	"errors"
	"math"
	"testing"
)

func TestVerifyReplayCleanRun(t *testing.T) {
	cfg := Config{
		Objects:      map[string]Object{"C": &testCounter{}},
		Programs:     []Program{incThenRead(3), incThenRead(2)},
		VerifyReplay: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run with VerifyReplay: %v", err)
	}
	if !res.AllDone() {
		t.Fatalf("not all processes finished: %v", res.Status)
	}
}

func TestVerifyReplayMarksAndHang(t *testing.T) {
	// One process hangs (bounded object), the other finishes and records
	// logical-operation marks; replay must accept both shapes.
	cfg := Config{
		Objects: map[string]Object{"C": &testCounter{budget: 3}},
		Programs: []Program{
			func(ctx *Ctx) Value {
				ctx.BeginOp("L", "work")
				ctx.Invoke("C", "inc")
				v := ctx.Invoke("C", "read")
				ctx.EndOp("L", "work", v)
				return v
			},
			incThenRead(5), // exceeds the budget and hangs
		},
		Scheduler:    NewFixed(0, 0, 1, 1),
		VerifyReplay: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run with VerifyReplay: %v", err)
	}
	if res.Status[0] != StatusDone || res.Status[1] != StatusHung {
		t.Fatalf("statuses = %v %v, want done hung", res.Status[0], res.Status[1])
	}
}

func TestVerifyReplayStoppedRun(t *testing.T) {
	// A scheduler that stops mid-run leaves a pending invocation; replay
	// of the stopped process must accept the truncated trace.
	cfg := Config{
		Objects:      map[string]Object{"C": &testCounter{}},
		Programs:     []Program{incThenRead(4), incThenRead(4)},
		Scheduler:    NewFixed(0, 1, 0), // fallback Stop after three steps
		VerifyReplay: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run with VerifyReplay: %v", err)
	}
	if res.Status[0] != StatusStopped || res.Status[1] != StatusStopped {
		t.Fatalf("statuses = %v, want both stopped", res.Status)
	}
}

func TestVerifyReplayCatchesImpureProgram(t *testing.T) {
	// The program smuggles state across executions in a closure: the
	// first execution takes the "inc" branch, the replay takes "read".
	calls := 0
	cfg := Config{
		Objects: map[string]Object{"C": &testCounter{}},
		Programs: []Program{
			func(ctx *Ctx) Value {
				calls++
				if calls == 1 {
					return ctx.Invoke("C", "inc")
				}
				return ctx.Invoke("C", "read")
			},
		},
		VerifyReplay: true,
	}
	_, err := Run(cfg)
	if !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("Run = %v, want ErrReplayDivergence", err)
	}
}

func TestVerifyReplayCatchesImpureOutput(t *testing.T) {
	// Same invocations, different output on the second execution.
	calls := 0
	cfg := Config{
		Objects: map[string]Object{"C": &testCounter{}},
		Programs: []Program{
			func(ctx *Ctx) Value {
				ctx.Invoke("C", "inc")
				calls++
				return calls
			},
		},
		VerifyReplay: true,
	}
	_, err := Run(cfg)
	if !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("Run = %v, want ErrReplayDivergence", err)
	}
}

func TestVerifyReplayDisabledTraceIsNoop(t *testing.T) {
	// Without a trace there is nothing to replay against; the run must
	// succeed even for an impure program.
	calls := 0
	cfg := Config{
		Objects: map[string]Object{"C": &testCounter{}},
		Programs: []Program{
			func(ctx *Ctx) Value {
				ctx.Invoke("C", "inc")
				calls++
				return calls
			},
		},
		VerifyReplay: true,
		DisableTrace: true,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run with DisableTrace: %v", err)
	}
}

// TestVerifyReplayDivergenceMessages pins the report for each way a
// replayed program can differ from its recording. Process 0 is pure;
// process 1 runs first on the recorded execution and again on the
// replay. The two interleave round-robin, so process 1's per-process
// event index differs from the global Seq of the event it names.
func TestVerifyReplayDivergenceMessages(t *testing.T) {
	echo := ObjectFunc(func(_ *Env, inv Invocation) Response { return Respond(len(inv.Args)) })
	cases := []struct {
		name         string
		first, again Program
		want         string
	}{
		{
			"different args",
			func(ctx *Ctx) Value { ctx.Invoke("C", "inc"); return ctx.Invoke("E", "echo", 1, "a") },
			func(ctx *Ctx) Value { ctx.Invoke("C", "inc"); return ctx.Invoke("E", "echo", 1, "b") },
			"sim: replay diverged from recorded trace: process 1 at event 1 3 P1 step E.echo(1, a) -> 2: program invoked E.echo[1 b]",
		},
		{
			"nil against empty args",
			func(ctx *Ctx) Value { ctx.Invoke("C", "inc"); return ctx.Invoke("E", "echo") },
			func(ctx *Ctx) Value { ctx.Invoke("C", "inc"); return ctx.Invoke("E", "echo", []Value{}...) },
			"sim: replay diverged from recorded trace: process 1 at event 1 3 P1 step E.echo() -> 0: program invoked E.echo[]",
		},
		{
			"recorded events left",
			func(ctx *Ctx) Value { ctx.Invoke("C", "inc"); ctx.Invoke("C", "inc"); return ctx.Invoke("C", "read") },
			func(ctx *Ctx) Value { ctx.Invoke("C", "inc"); return nil },
			"sim: replay diverged from recorded trace: process 1 at event 1 3 P1 step C.inc() -> <nil>: program finished with 2 recorded event(s) left",
		},
		{
			"mark with a different output",
			func(ctx *Ctx) Value {
				ctx.BeginOp("L", "get")
				v := ctx.Invoke("C", "read")
				ctx.EndOp("L", "get", v)
				return v
			},
			func(ctx *Ctx) Value {
				ctx.BeginOp("L", "get")
				v := ctx.Invoke("C", "read")
				ctx.EndOp("L", "get", v.(int)+1)
				return v
			},
			"sim: replay diverged from recorded trace: process 1 at event 2 3 P1 return L.get() -> 1: program recorded return mark L.get[] -> 2",
		},
		{
			"extra invocation",
			func(ctx *Ctx) Value { ctx.Invoke("C", "inc"); return ctx.Invoke("C", "read") },
			func(ctx *Ctx) Value {
				ctx.Invoke("C", "inc")
				ctx.Invoke("C", "read")
				return ctx.Invoke("E", "echo", 7)
			},
			"sim: replay diverged from recorded trace: process 1 at event 2: extra invocation E.echo",
		},
	}
	for _, c := range cases {
		calls := 0
		prog := func(ctx *Ctx) Value {
			calls++
			if calls == 1 {
				return c.first(ctx)
			}
			return c.again(ctx)
		}
		_, err := Run(Config{
			Objects:      map[string]Object{"C": &testCounter{}, "E": echo},
			Programs:     []Program{incThenRead(2), prog},
			VerifyReplay: true,
		})
		if !errors.Is(err, ErrReplayDivergence) {
			t.Errorf("%s: Run = %v, want ErrReplayDivergence", c.name, err)
			continue
		}
		if got := err.Error(); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestVerifyReplaySharedArgs: a program that passes one argument slice on
// both executions replays clean even though its element is not equal to
// itself, because reflect.DeepEqual judges one backing array equal.
func TestVerifyReplaySharedArgs(t *testing.T) {
	args := []Value{math.NaN()}
	cfg := Config{
		Objects:      map[string]Object{"C": &testCounter{}},
		Programs:     []Program{func(ctx *Ctx) Value { return ctx.Invoke("C", "inc", args...) }},
		VerifyReplay: true,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestVerifyReplayAllocsIndependentOfTraceLength: replay reads the trace
// in place and compares argument lists without boxing them, so what
// VerifyReplay adds to a run's allocations does not grow with the number
// of steps. The programs pass one preallocated argument list, so their
// own re-execution allocates nothing per step.
func TestVerifyReplayAllocsIndependentOfTraceLength(t *testing.T) {
	extra := func(steps int) float64 {
		args := []Value{1}
		prog := func(ctx *Ctx) Value {
			for i := 0; i < steps; i++ {
				ctx.Invoke("C", "inc", args...)
			}
			return nil
		}
		allocs := func(verify bool) float64 {
			return testing.AllocsPerRun(20, func() {
				cfg := Config{
					Objects:      map[string]Object{"C": &testCounter{}},
					Programs:     []Program{prog, prog},
					VerifyReplay: verify,
				}
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		return allocs(true) - allocs(false)
	}
	if short, long := extra(2), extra(32); short != long {
		t.Errorf("VerifyReplay adds %v allocations at 2 steps per process and %v at 32; want them equal", short, long)
	}
}
