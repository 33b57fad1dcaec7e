package modelcheck

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"detobj/internal/registers"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// counterFactory builds procs processes that each increment a shared
// counter `steps` times and return its final reading.
func counterFactory(procs, steps int) Factory {
	return func() sim.Config {
		objects := map[string]sim.Object{"C": registers.NewCounter()}
		c := registers.CounterRef{Name: "C"}
		programs := make([]sim.Program, procs)
		for i := range programs {
			programs[i] = func(ctx *sim.Ctx) sim.Value {
				for s := 0; s < steps; s++ {
					c.Inc(ctx)
				}
				return c.Read(ctx)
			}
		}
		return sim.Config{Objects: objects, Programs: programs}
	}
}

// relaxedFactory is an E4-style configuration: procs processes racing on
// a relaxed WRN_k wrapper, one of them alone on index 1.
func relaxedFactory(k, procs int) Factory {
	return func() sim.Config {
		objects := map[string]sim.Object{}
		rlx, _ := wrn.NewRelaxed(objects, "W", k)
		progs := make([]sim.Program, procs)
		for p := 0; p < procs; p++ {
			p := p
			progs[p] = func(ctx *sim.Ctx) sim.Value {
				if p == 0 {
					return rlx.RlxWRN(ctx, 1, "solo")
				}
				return rlx.RlxWRN(ctx, 0, fmt.Sprintf("p%d", p))
			}
		}
		return sim.Config{Objects: objects, Programs: progs}
	}
}

func TestExploreCountsInterleavings(t *testing.T) {
	// Two processes with 2 steps each (1 inc + 1 read): C(4,2) = 6.
	n, err := Explore(counterFactory(2, 1), 0, func(Execution) error { return nil })
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if n != 6 {
		t.Errorf("executions = %d, want 6", n)
	}
}

func TestExploreSingleProcess(t *testing.T) {
	n, err := Explore(counterFactory(1, 3), 0, func(e Execution) error {
		if e.Result.Outputs[0] != 3 {
			return fmt.Errorf("output %v", e.Result.Outputs[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
}

func TestExploreLimit(t *testing.T) {
	_, err := Explore(counterFactory(3, 2), 5, func(Execution) error { return nil })
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

// TestExploreVisitError: a visit error stops Explore at once and comes
// back to the caller, after exactly the first stopAt executions of the
// full depth-first enumeration.
func TestExploreVisitError(t *testing.T) {
	f := counterFactory(3, 2)
	var all []string
	if _, err := Explore(f, 0, func(e Execution) error {
		all = append(all, renderExec(e))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	const stopAt = 37
	boom := errors.New("boom")
	var got []string
	n, err := Explore(f, 0, func(e Execution) error {
		got = append(got, renderExec(e))
		if len(got) == stopAt {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != stopAt {
		t.Errorf("count %d, want %d", n, stopAt)
	}
	if !reflect.DeepEqual(got, all[:stopAt]) {
		t.Errorf("the %d visited executions are not the first %d of the enumeration", len(got), stopAt)
	}
}

// mine is a deterministic object that panics on its fuse-th application.
type mine struct {
	applied, fuse int
}

func (m *mine) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	m.applied++
	if m.applied == m.fuse {
		panic(fmt.Sprintf("mine detonated at application %d", m.applied))
	}
	return sim.Respond(m.applied)
}

func mineFactory(procs, steps, fuse int) Factory {
	return func() sim.Config {
		programs := make([]sim.Program, procs)
		for i := range programs {
			programs[i] = func(ctx *sim.Ctx) sim.Value {
				last := sim.Value(nil)
				for s := 0; s < steps; s++ {
					last = ctx.Invoke("M", "hit")
				}
				return last
			}
		}
		return sim.Config{
			Objects:  map[string]sim.Object{"M": &mine{fuse: fuse}},
			Programs: programs,
		}
	}
}

// TestExploreCrashingAdversary: an object that panics mid-exploration
// stops Explore with the run's *sim.ObjectPanicError.
func TestExploreCrashingAdversary(t *testing.T) {
	_, err := Explore(mineFactory(3, 2, 4), 0, func(Execution) error { return nil })
	var ope *sim.ObjectPanicError
	if !errors.As(err, &ope) {
		t.Fatalf("err = %T %v, want *sim.ObjectPanicError", err, err)
	}
}

func TestVerifyAllReportsSchedule(t *testing.T) {
	boom := errors.New("boom")
	_, err := VerifyAll(counterFactory(2, 1), 0, func(res *sim.Result) error {
		if res.Outputs[0] == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// coin draws one nondeterministic bit per flip.
type coin struct{}

func (coin) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	return sim.Respond(env.Rand.Intn(2))
}

// AppendStateSig implements sim.StateSigner; a coin is stateless.
func (coin) AppendStateSig(dst []byte) []byte { return dst }

func coinFactory(procs, flips int) Factory {
	return func() sim.Config {
		programs := make([]sim.Program, procs)
		for i := range programs {
			programs[i] = func(ctx *sim.Ctx) sim.Value {
				total := 0
				for f := 0; f < flips; f++ {
					total = total*2 + ctx.Invoke("coin", "flip").(int)
				}
				return total
			}
		}
		return sim.Config{
			Objects:  map[string]sim.Object{"coin": coin{}},
			Programs: programs,
		}
	}
}

// TestExploreEnumeratesChoices: one process, two flips → 4 executions, one
// per choice script, covering all outputs 0..3.
func TestExploreEnumeratesChoices(t *testing.T) {
	seen := map[sim.Value]bool{}
	n, err := Explore(coinFactory(1, 2), 0, func(e Execution) error {
		seen[e.Result.Outputs[0]] = true
		if len(e.Choices) != 2 {
			return fmt.Errorf("choices = %v", e.Choices)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if n != 4 {
		t.Errorf("executions = %d, want 4", n)
	}
	for v := 0; v < 4; v++ {
		if !seen[v] {
			t.Errorf("output %d never produced", v)
		}
	}
}

// TestExploreSchedulesTimesChoices: two single-flip processes → 2
// schedules × 4 choice combinations = 8 executions.
func TestExploreSchedulesTimesChoices(t *testing.T) {
	n, err := Explore(coinFactory(2, 1), 0, func(Execution) error { return nil })
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if n != 8 {
		t.Errorf("executions = %d, want 8", n)
	}
}

func TestScriptSourceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	(&scriptSource{}).Intn(0)
}
