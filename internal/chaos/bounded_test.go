package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"detobj/internal/consensus"
	"detobj/internal/election"
	"detobj/internal/registers"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/tasks"
	"detobj/internal/wrn"
)

// scriptRun executes one process that applies ops, in order, to the
// object registered as "O", and returns every response as its output.
func scriptRun(t *testing.T, obj sim.Object, ops []sim.Invocation) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Objects: map[string]sim.Object{"O": obj},
		Programs: []sim.Program{func(ctx *sim.Ctx) sim.Value {
			outs := make([]sim.Value, 0, len(ops))
			for _, op := range ops {
				outs = append(outs, ctx.Invoke("O", op.Op, op.Args...))
			}
			return outs
		}},
		Seed:         7,
		VerifyReplay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBoundedConvertsEveryHang: each bounded-use object of the simulated
// tree hangs a caller that uses it past its budget, and through Bounded
// that one call returns ErrExhausted while the legal calls before it
// answer exactly as they do on the bare object.
func TestBoundedConvertsEveryHang(t *testing.T) {
	op := func(name string, args ...sim.Value) sim.Invocation {
		return sim.Invocation{Op: name, Args: args}
	}
	cases := []struct {
		name  string
		mk    func() sim.Object
		legal []sim.Invocation
		over  sim.Invocation
	}{
		{"1sWRN index reuse", func() sim.Object { return wrn.NewOneShot(2) },
			[]sim.Invocation{op("WRN", 0, "a"), op("WRN", 1, "b")}, op("WRN", 0, "c")},
		{"strong election index reuse", func() sim.Object { return election.NewStrongObject(3) },
			[]sim.Invocation{op("invoke", 1), op("invoke", 2)}, op("invoke", 1)},
		{"set consensus past its budget", func() sim.Object { return setconsensus.NewObject(2, 1) },
			[]sim.Invocation{op("propose", "a"), op("propose", "b")}, op("propose", "c")},
		{"consensus cell past its budget", func() sim.Object { return consensus.NewCell(1) },
			[]sim.Invocation{op("propose", "a")}, op("propose", "b")},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			script := append(append([]sim.Invocation(nil), c.legal...), c.over)
			if res := scriptRun(t, c.mk(), script); res.Status[0] != sim.StatusHung {
				t.Fatalf("bare object: caller status %v, want hung", res.Status[0])
			}
			want := scriptRun(t, c.mk(), c.legal).Outputs[0].([]sim.Value)
			res := scriptRun(t, NewBounded(c.mk(), 0), script)
			if res.Status[0] != sim.StatusDone {
				t.Fatalf("bounded object: caller status %v, want done", res.Status[0])
			}
			got := res.Outputs[0].([]sim.Value)
			if !reflect.DeepEqual(got[:len(c.legal)], want) {
				t.Fatalf("legal responses %v through Bounded, %v bare", got[:len(c.legal)], want)
			}
			last := got[len(c.legal)]
			if e, ok := last.(error); !Exhausted(last) || !ok || !errors.Is(e, ErrExhausted) {
				t.Fatalf("over-budget call returned %v, want ErrExhausted", last)
			}
		})
	}
}

// tally counts, per process, the invocations that reach it.
type tally struct {
	n map[int]int
}

func (o *tally) Apply(env *sim.Env, _ sim.Invocation) sim.Response {
	o.n[env.Proc]++
	return sim.Respond(o.n[env.Proc])
}

// TestBoundedBudgetIsPerProcess: each process gets exactly budget calls
// through the wrapper, whatever the others spend; every later call
// returns ErrExhausted without reaching the inner object.
func TestBoundedBudgetIsPerProcess(t *testing.T) {
	const procs, extra = 3, 2
	for _, budget := range []int{1, 2, 4} {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			inner := &tally{n: make(map[int]int)}
			progs := make([]sim.Program, procs)
			for i := range progs {
				progs[i] = func(ctx *sim.Ctx) sim.Value {
					outs := make([]sim.Value, 0, budget+extra)
					for j := 0; j < budget+extra; j++ {
						outs = append(outs, ctx.Invoke("O", "inc"))
					}
					return outs
				}
			}
			res, err := sim.Run(sim.Config{
				Objects:      map[string]sim.Object{"O": NewBounded(inner, budget)},
				Programs:     progs,
				Scheduler:    sim.NewRandom(int64(budget)),
				VerifyReplay: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < procs; p++ {
				if inner.n[p] != budget {
					t.Errorf("P%d: %d calls reached the inner object, want %d", p, inner.n[p], budget)
				}
				for j, out := range res.Outputs[p].([]sim.Value) {
					if Exhausted(out) != (j >= budget) {
						t.Errorf("P%d call %d returned %v with budget %d", p, j, out, budget)
					}
				}
			}
		})
	}
}

// TestBoundedRestartReentry: an amnesiac restart re-runs the victim's
// program from the top, so a victim whose strong-election step landed
// before the crash re-invokes the object under an index it already
// used. The bare object hangs it, as the model prescribes; through
// Bounded the same re-entry returns ErrExhausted and the victim
// finishes. Either way no other process is touched, and every decision
// that is not ErrExhausted satisfies (k, k−1)-strong set election.
func TestBoundedRestartReentry(t *testing.T) {
	const k = 3
	run := func(t *testing.T, obj sim.Object, sched sim.Scheduler) *sim.Result {
		t.Helper()
		progs := make([]sim.Program, k)
		for i := range progs {
			i := i
			progs[i] = func(ctx *sim.Ctx) sim.Value {
				w := ctx.Invoke("E", "invoke", i)
				registers.Ref{Name: sim.Indexed("D", i)}.Write(ctx, w)
				return w
			}
		}
		objects := map[string]sim.Object{"E": obj}
		for i := 0; i < k; i++ {
			objects[sim.Indexed("D", i)] = registers.New(nil)
		}
		res, err := sim.Run(sim.Config{
			Objects:      objects,
			Programs:     progs,
			Scheduler:    sched,
			MaxSteps:     1 << 10,
			VerifyReplay: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for victim := 0; victim < k; victim++ {
		victim := victim
		t.Run(fmt.Sprintf("victim=%d", victim), func(t *testing.T) {
			reentries, fresh := 0, 0
			for seed := int64(0); seed < 8; seed++ {
				for crashAt := 0; crashAt < 2*k; crashAt++ {
					r := NewReport(seed)
					bounded := run(t, NewBounded(election.NewStrongObject(k), 0),
						NewCrashRestart(sim.NewRandom(seed), r, victim, crashAt, 1))
					bare := run(t, election.NewStrongObject(k),
						NewCrashRestart(sim.NewRandom(seed), NewReport(seed), victim, crashAt, 1))
					o := tasks.Outcome{Inputs: map[int]sim.Value{}, Outputs: map[int]sim.Value{}}
					for p := 0; p < k; p++ {
						o.Inputs[p] = p
						if bounded.Status[p] != sim.StatusDone {
							t.Fatalf("seed %d crashAt %d: P%d status %v through Bounded, want done",
								seed, crashAt, p, bounded.Status[p])
						}
						out := bounded.Outputs[p]
						if Exhausted(out) {
							if p != victim {
								t.Fatalf("seed %d crashAt %d: untouched P%d exhausted", seed, crashAt, p)
							}
							if bare.Status[p] != sim.StatusHung {
								t.Fatalf("seed %d crashAt %d: bare re-entry status %v, want hung",
									seed, crashAt, bare.Status[p])
							}
							continue
						}
						if bare.Status[p] != sim.StatusDone {
							t.Fatalf("seed %d crashAt %d: bare P%d status %v, want done", seed, crashAt, p, bare.Status[p])
						}
						o.Outputs[p] = out
					}
					if err := (tasks.StrongElection{K: k - 1}).Check(o); err != nil {
						t.Fatalf("seed %d crashAt %d: %v", seed, crashAt, err)
					}
					switch _, decided := o.Outputs[victim]; {
					case !decided:
						reentries++
					case r.Restarts() == 1:
						fresh++
					}
				}
			}
			if reentries == 0 || fresh == 0 {
				t.Fatalf("sweep reached %d re-entries and %d fresh restarts, want both", reentries, fresh)
			}
		})
	}
}
