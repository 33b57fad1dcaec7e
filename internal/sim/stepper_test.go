package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"detobj/internal/registers"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// script is a choice script: Intn answers from a fixed list of draws.
// Setting pos to 0 re-arms it, as the model checker re-arms its own
// before a rewind.
type script struct {
	draws []int
	pos   int
}

func (s *script) Intn(n int) int {
	v := s.draws[s.pos%len(s.draws)] % n
	s.pos++
	return v
}

// coin is a nondeterministic object with state and no Reset: it draws
// each flip from Env.Rand and counts the heads.
type coin struct{ heads int }

func (c *coin) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	v := env.Rand.Intn(2)
	c.heads += v
	return sim.Respond(v)
}

// rewindCase is a configuration TestRewindMatchesFreshRun rewinds; each
// config call builds it afresh.
type rewindCase struct {
	name   string
	config func() sim.Config
}

func rewindCases() []rewindCase {
	return []rewindCase{
		// Algorithm 5's TracedWRN marks, its strong set election drawing
		// from the seeded Env.Rand, and snapshot and election objects
		// without Reset.
		{"alg5 k=3", func() sim.Config {
			objects := map[string]sim.Object{}
			impl := wrn.NewImpl(objects, "LW", 3)
			progs := make([]sim.Program, 3)
			for i := range progs {
				progs[i] = func(ctx *sim.Ctx) sim.Value { return impl.TracedWRN(ctx, i, 100+i) }
			}
			return sim.Config{Objects: objects, Programs: progs, Seed: 5}
		}},
		// A 1sWRN_2 with Reset, whose indexes are each used twice: every
		// second use hangs its caller.
		{"1sWRN hangs", func() sim.Config {
			objects := map[string]sim.Object{"W": wrn.NewOneShot(2)}
			use := func(i int, v string) sim.Program {
				return func(ctx *sim.Ctx) sim.Value { return ctx.Invoke("W", "WRN", i, v) }
			}
			return sim.Config{Objects: objects, Programs: []sim.Program{
				func(ctx *sim.Ctx) sim.Value {
					ctx.Invoke("W", "WRN", 0, "a")
					return ctx.Invoke("W", "WRN", 0, "b")
				},
				use(1, "c"), use(1, "d"), use(0, "e"),
			}}
		}},
		// A coin under a choice script, next to a counter with Reset.
		{"coin under a script", func() sim.Config {
			objects := map[string]sim.Object{"coin": &coin{}, "C": registers.NewCounter()}
			c := registers.CounterRef{Name: "C"}
			progs := make([]sim.Program, 3)
			for i := range progs {
				progs[i] = func(ctx *sim.Ctx) sim.Value {
					sum := 0
					for f := 0; f < 3; f++ {
						sum = 2*sum + ctx.Invoke("coin", "flip").(int)
						c.Inc(ctx)
					}
					return sum + 10*c.Read(ctx)
				}
			}
			return sim.Config{Objects: objects, Programs: progs,
				Choice: &script{draws: []int{1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1}}}
		}},
		// More processes than the worker pool keeps idle.
		{"counter x70", func() sim.Config {
			objects := map[string]sim.Object{"C": registers.NewCounter()}
			c := registers.CounterRef{Name: "C"}
			progs := make([]sim.Program, 70)
			for i := range progs {
				progs[i] = func(ctx *sim.Ctx) sim.Value {
					ctx.BeginOp("count", "inc", i)
					c.Inc(ctx)
					ctx.EndOp("count", "inc", nil)
					return c.Read(ctx)
				}
			}
			return sim.Config{Objects: objects, Programs: progs}
		}},
	}
}

// resetAll resets every object in place and reports whether each had a
// Reset.
func resetAll(objects map[string]sim.Object) bool {
	for _, o := range objects {
		if _, ok := o.(interface{ Reset() }); !ok {
			return false
		}
	}
	for _, o := range objects {
		o.(interface{ Reset() }).Reset()
	}
	return true
}

// sameObjects compares two object sets by state signature, or else by
// reflect.DeepEqual.
func sameObjects(a, b map[string]sim.Object) error {
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(a) != len(b) {
		return fmt.Errorf("%d objects, want %d", len(a), len(b))
	}
	for _, name := range names {
		x, y := a[name], b[name]
		if sx, ok := x.(sim.StateSigner); ok {
			if !bytes.Equal(sx.AppendStateSig(nil), y.(sim.StateSigner).AppendStateSig(nil)) {
				return fmt.Errorf("object %q signs differently", name)
			}
		} else if !reflect.DeepEqual(x, y) {
			return fmt.Errorf("object %q differs: %+v, want %+v", name, x, y)
		}
	}
	return nil
}

// sameResult compares everything a Result reports.
func sameResult(got, want *sim.Result) error {
	switch {
	case !reflect.DeepEqual(got.Outputs, want.Outputs):
		return fmt.Errorf("outputs %v, want %v", got.Outputs, want.Outputs)
	case !reflect.DeepEqual(got.Status, want.Status):
		return fmt.Errorf("statuses %v, want %v", got.Status, want.Status)
	case !reflect.DeepEqual(got.Enabled, want.Enabled):
		return fmt.Errorf("enabled %v, want %v", got.Enabled, want.Enabled)
	case got.Steps != want.Steps:
		return fmt.Errorf("%d steps, want %d", got.Steps, want.Steps)
	case !reflect.DeepEqual(got.Restarts, want.Restarts):
		return fmt.Errorf("restarts %v, want %v", got.Restarts, want.Restarts)
	}
	return sameTrace(got.Trace, want.Trace)
}

// sameTrace compares two traces event by event.
func sameTrace(got, want sim.Trace) error {
	if !slices.EqualFunc(got.Events, want.Events, func(a, b sim.Event) bool { return reflect.DeepEqual(a, b) }) {
		return fmt.Errorf("trace\n%s\nwant\n%s", got, want)
	}
	return nil
}

// freshRun runs a fresh configuration of c under schedule p, stopped
// where p ends and verified against its replay, and returns its result
// and its objects.
func freshRun(c rewindCase, untraced bool, p []int) (*sim.Result, map[string]sim.Object, error) {
	cfg := c.config()
	cfg.VerifyReplay, cfg.DisableTrace = true, untraced
	cfg.Scheduler = sim.NewFixed(p...)
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("fresh run of %v: %w", p, err)
	}
	return res, cfg.Objects, nil
}

// sameAsFresh compares the stepped run and its objects with a fresh run
// of p, and the stepped run's record with the trace of a traced fresh
// run of p: an untraced stepped run keeps the record all the same.
func sameAsFresh(c rewindCase, untraced bool, st *sim.Stepper, objects map[string]sim.Object, p []int) error {
	want, wantObjects, err := freshRun(c, untraced, p)
	if err != nil {
		return err
	}
	got, err := st.Result()
	if err != nil {
		return err
	}
	if err := sameResult(got, want); err != nil {
		return err
	}
	if untraced {
		if want, _, err = freshRun(c, false, p); err != nil {
			return err
		}
	}
	if err := sameTrace(st.Trace(), want.Trace); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return sameObjects(objects, wantObjects)
}

// checkRewinds drives c one step at a time along a random schedule p of
// up to maxLen steps, then rewinds to a random cut point and steps the
// rest of p again, rewinds times. Right after each rewind to t the run
// must match a fresh Run of p[:t], and after the re-step a fresh Run of
// p: the same Result, the same record (which the rewind cut back to
// its first t steps) and the same object states. Both runs set
// VerifyReplay, so a traced stepped run's Results are verified against
// the record its rewinds left; untraced, both runs set DisableTrace.
func checkRewinds(c rewindCase, untraced bool, seed int64, maxLen, rewinds int) error {
	rng := rand.New(rand.NewSource(seed))
	cfg := c.config()
	cfg.VerifyReplay, cfg.DisableTrace = true, untraced
	var st sim.Stepper
	defer st.Stop()
	if err := st.Start(cfg); err != nil {
		return err
	}
	var p []int
	for len(p) < maxLen {
		enabled, err := st.Enabled()
		if err != nil {
			return err
		}
		if len(enabled) == 0 {
			break
		}
		id := enabled[rng.Intn(len(enabled))]
		if err := st.Step(id); err != nil {
			return err
		}
		p = append(p, id)
	}
	objects := cfg.Objects
	for r := 0; r < rewinds; r++ {
		cut := rng.Intn(len(p) + 1)
		if !resetAll(objects) {
			objects = c.config().Objects
		}
		if s, ok := cfg.Choice.(*script); ok {
			s.pos = 0
		}
		if err := st.Rewind(cut, objects); err != nil {
			return fmt.Errorf("rewind of %v to %d: %w", p, cut, err)
		}
		if st.Steps() != cut {
			return fmt.Errorf("rewound to %d, run at step %d", cut, st.Steps())
		}
		if err := sameAsFresh(c, untraced, &st, objects, p[:cut]); err != nil {
			return fmt.Errorf("%v rewound to %d: %w", p, cut, err)
		}
		for _, id := range p[cut:] {
			if err := st.Step(id); err != nil {
				return fmt.Errorf("%v rewound to %d, stepping %d: %w", p, cut, id, err)
			}
		}
		if err := sameAsFresh(c, untraced, &st, objects, p); err != nil {
			return fmt.Errorf("%v rewound to %d and stepped again: %w", p, cut, err)
		}
	}
	return nil
}

// TestRewindMatchesFreshRun: a run that stepped a schedule, rewound to a
// cut point and stepped the rest again is the run a fresh Run of the
// schedule makes, down to the trace's sequence numbers. An untraced run
// rewinds through the record it keeps all the same.
func TestRewindMatchesFreshRun(t *testing.T) {
	for _, c := range rewindCases() {
		for _, untraced := range []bool{false, true} {
			for seed := int64(0); seed < 40; seed++ {
				if err := checkRewinds(c, untraced, seed, 4+int(seed)%40, 3); err != nil {
					t.Fatalf("%s untraced=%v seed %d: %v", c.name, untraced, seed, err)
				}
			}
		}
	}
}

// FuzzRewindMatchesFreshRun is TestRewindMatchesFreshRun over fuzzed
// cases, schedules, cut points and tracing.
func FuzzRewindMatchesFreshRun(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(12), false)
	f.Add(uint8(1), int64(2), uint8(6), true)
	f.Add(uint8(2), int64(3), uint8(20), false)
	f.Add(uint8(3), int64(4), uint8(90), true)
	cases := rewindCases()
	f.Fuzz(func(t *testing.T, which uint8, seed int64, maxLen uint8, untraced bool) {
		c := cases[int(which)%len(cases)]
		if err := checkRewinds(c, untraced, seed, int(maxLen), 4); err != nil {
			t.Fatalf("%s untraced=%v seed %d: %v", c.name, untraced, seed, err)
		}
	})
}

// TestRewindCatchesSmuggledState: a program that keeps a count of its
// executions in a closure and passes it on behaves differently once
// restarted, and the fast-forward fails the rewind. The count goes into
// an invocation's arguments, a BeginOp mark's arguments or an EndOp
// mark's value; a rewind checks all three against the record it keeps,
// traced or not.
func TestRewindCatchesSmuggledState(t *testing.T) {
	cases := []struct {
		name     string
		smuggler func(calls *int) sim.Program
	}{
		{"invocation argument", func(calls *int) sim.Program {
			return func(ctx *sim.Ctx) sim.Value {
				*calls++
				ctx.Invoke("C", "inc")
				ctx.Invoke("C", "add", *calls)
				return ctx.Invoke("C", "read")
			}
		}},
		{"BeginOp argument", func(calls *int) sim.Program {
			return func(ctx *sim.Ctx) sim.Value {
				*calls++
				ctx.Invoke("C", "inc")
				ctx.BeginOp("X", "op", *calls)
				ctx.Invoke("C", "inc")
				ctx.EndOp("X", "op", nil)
				return ctx.Invoke("C", "read")
			}
		}},
		{"EndOp value", func(calls *int) sim.Program {
			return func(ctx *sim.Ctx) sim.Value {
				*calls++
				ctx.BeginOp("X", "op")
				ctx.Invoke("C", "inc")
				ctx.EndOp("X", "op", *calls)
				ctx.Invoke("C", "inc")
				return ctx.Invoke("C", "read")
			}
		}},
	}
	zero := sim.ObjectFunc(func(*sim.Env, sim.Invocation) sim.Response { return sim.Respond(0) })
	for _, c := range cases {
		for _, untraced := range []bool{false, true} {
			calls := 0
			var st sim.Stepper
			err := st.Start(sim.Config{
				Objects:      map[string]sim.Object{"C": zero},
				Programs:     []sim.Program{c.smuggler(&calls)},
				DisableTrace: untraced,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := st.Step(0); err != nil {
					t.Fatal(err)
				}
			}
			err = st.Rewind(1, map[string]sim.Object{"C": zero})
			st.Stop()
			if !errors.Is(err, sim.ErrReplayDivergence) {
				t.Errorf("rewind of a program smuggling its count (%s), untraced=%v: err = %v, want ErrReplayDivergence",
					c.name, untraced, err)
			}
		}
	}
}
