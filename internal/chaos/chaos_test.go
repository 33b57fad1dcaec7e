package chaos

import (
	"errors"
	"strings"
	"testing"

	"detobj/internal/linearize"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/tasks"
	"detobj/internal/wrn"
)

// alg5Run executes k processes driving wrn.Impl (Algorithm 5) under the
// given scheduler stack, with replay verification on.
func alg5Run(t *testing.T, k int, seed int64, sched sim.Scheduler) (*sim.Result, wrn.Impl) {
	t.Helper()
	objects := map[string]sim.Object{}
	impl := wrn.NewImpl(objects, "LW", k)
	progs := make([]sim.Program, k)
	for i := 0; i < k; i++ {
		i := i
		progs[i] = func(ctx *sim.Ctx) sim.Value {
			return impl.TracedWRN(ctx, i, 100+i)
		}
	}
	res, err := sim.Run(sim.Config{
		Objects:      objects,
		Programs:     progs,
		Scheduler:    sched,
		Seed:         seed,
		MaxSteps:     1 << 18,
		VerifyReplay: true,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res, impl
}

// traceString flattens a trace for byte-for-byte comparison.
func traceString(tr sim.Trace) string {
	var b strings.Builder
	for _, e := range tr.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// checkHistory asserts the run's history, pending operations included,
// linearizes against the 1sWRN_k specification.
func checkHistory(t *testing.T, res *sim.Result, impl wrn.Impl, k int) {
	t.Helper()
	done, pending := linearize.OpsWithPending(res.Trace, impl.Name())
	all := append(done, pending...)
	if !linearize.Check(wrn.Spec(k), all).OK {
		t.Fatalf("chaos history not linearizable:\ncompleted %v\npending %v", done, pending)
	}
}

// TestCrashDuringOpPartialState kills each victim in turn right after it
// opens its logical WRN (depth 0) and several base steps deep. The victim
// ends StatusStopped with its partial writes visible; survivors finish and
// the history, pending op included, linearizes.
func TestCrashDuringOpPartialState(t *testing.T) {
	const k = 4
	for victim := 0; victim < k; victim++ {
		for _, depth := range []int{0, 1, 3, 7} {
			for seed := int64(0); seed < 8; seed++ {
				r := NewReport(seed)
				adv := NewCrashDuringOp(sim.NewRandom(seed), r, victim, depth)
				res, impl := alg5Run(t, k, seed, Instrument(adv, r))
				// An operation shorter than depth completes before the
				// crash arms; the victim then survives and no crash is
				// recorded. At depth 0 the crash always fires.
				if r.Crashes() == 0 {
					if depth == 0 {
						t.Fatalf("victim=%d seed=%d: depth-0 crash never fired", victim, seed)
					}
					if res.Status[victim] != sim.StatusDone {
						t.Fatalf("victim=%d depth=%d seed=%d: no crash recorded but victim status %v",
							victim, depth, seed, res.Status[victim])
					}
				} else if res.Status[victim] != sim.StatusStopped {
					t.Fatalf("victim=%d depth=%d seed=%d: victim status %v, want stopped",
						victim, depth, seed, res.Status[victim])
				}
				for i := 0; i < k; i++ {
					if i != victim && res.Status[i] != sim.StatusDone {
						t.Fatalf("victim=%d depth=%d seed=%d: survivor %d status %v",
							victim, depth, seed, i, res.Status[i])
					}
				}
				checkHistory(t, res, impl, k)
			}
		}
	}
}

// TestCrashRecoveryResumes crashes a victim, starves it for a window, and
// lets it re-enter with its id and local state. Everyone — victim included
// — must finish, and the report must show the crash/recover pair.
func TestCrashRecoveryResumes(t *testing.T) {
	const k = 3
	for victim := 0; victim < k; victim++ {
		for seed := int64(0); seed < 8; seed++ {
			r := NewReport(seed)
			adv := NewCrashRecovery(sim.NewRandom(seed), r, victim, 5, 40)
			res, impl := alg5Run(t, k, seed, Instrument(adv, r))
			if !res.AllDone() {
				t.Fatalf("victim=%d seed=%d: statuses %v, want all done after recovery",
					victim, seed, res.Status)
			}
			if r.Crashes() != 1 || r.Recoveries() != 1 {
				t.Fatalf("victim=%d seed=%d: crashes=%d recoveries=%d, want 1/1",
					victim, seed, r.Crashes(), r.Recoveries())
			}
			checkHistory(t, res, impl, k)
		}
	}
}

// TestStallStarvation starves one process for a window; wait-freedom means
// the others finish during the window and the victim afterwards. The
// report's max-stall must reflect the starvation.
func TestStallStarvation(t *testing.T) {
	const k, window = 3, 60
	for victim := 0; victim < k; victim++ {
		for seed := int64(0); seed < 8; seed++ {
			r := NewReport(seed)
			adv := NewStall(sim.NewRandom(seed), r, victim, 2, window)
			res, impl := alg5Run(t, k, seed, Instrument(adv, r))
			if !res.AllDone() {
				t.Fatalf("victim=%d seed=%d: statuses %v, want all done", victim, seed, res.Status)
			}
			if r.MaxStall() == 0 {
				t.Fatalf("victim=%d seed=%d: stall window never starved the victim", victim, seed)
			}
			if r.MaxStall() > window {
				t.Fatalf("victim=%d seed=%d: max stall %d exceeds window %d",
					victim, seed, r.MaxStall(), window)
			}
			checkHistory(t, res, impl, k)
		}
	}
}

// TestAdaptiveAdversarySweep drives Algorithm 5 under the history-driven
// adversary across seeds: replay-verified, linearizable, all done.
func TestAdaptiveAdversarySweep(t *testing.T) {
	const k = 4
	for seed := int64(0); seed < 25; seed++ {
		r := NewReport(seed)
		res, impl := alg5Run(t, k, seed, Instrument(NewAdaptive(seed, r), r))
		if !res.AllDone() {
			t.Fatalf("seed %d: statuses %v, want all done (adaptive adversary must not block wait-free code)",
				seed, res.Status)
		}
		checkHistory(t, res, impl, k)
		hist := r.StepHist()
		total := 0
		for _, n := range hist {
			total += n
		}
		if total != res.Trace.Steps() {
			t.Fatalf("seed %d: histogram total %d != trace steps %d", seed, total, res.Trace.Steps())
		}
	}
}

// TestChaosRunsAreReproducible: the same (seed, adversary configuration)
// must reproduce the trace and the rendered report byte for byte.
func TestChaosRunsAreReproducible(t *testing.T) {
	const k = 4
	for seed := int64(0); seed < 10; seed++ {
		run := func() (string, string) {
			r := NewReport(seed)
			stack := Instrument(NewStall(NewCrashDuringOp(NewAdaptive(seed, r), r, 1, 2), r, 2, 10, 30), r)
			res, _ := alg5Run(t, k, seed, stack)
			return traceString(res.Trace), r.String()
		}
		t1, r1 := run()
		t2, r2 := run()
		if t1 != t2 {
			t.Fatalf("seed %d: traces differ between identical runs", seed)
		}
		if r1 != r2 {
			t.Fatalf("seed %d: reports differ between identical runs:\n--- first\n%s--- second\n%s", seed, r1, r2)
		}
		if r1 == "" || !strings.Contains(r1, "seed") {
			t.Fatalf("seed %d: implausible report rendering %q", seed, r1)
		}
	}
}

// TestComposedAdversaries stacks crash + stall over the adaptive adversary
// and checks the run stays safe and consistent with the report.
func TestComposedAdversaries(t *testing.T) {
	const k = 4
	for seed := int64(0); seed < 10; seed++ {
		r := NewReport(seed)
		stack := Instrument(NewStall(NewCrashDuringOp(NewAdaptive(seed, r), r, 3, 1), r, 0, 5, 25), r)
		res, impl := alg5Run(t, k, seed, stack)
		if res.Status[3] != sim.StatusStopped {
			t.Fatalf("seed %d: crash victim status %v", seed, res.Status[3])
		}
		for i := 0; i < 3; i++ {
			if res.Status[i] != sim.StatusDone {
				t.Fatalf("seed %d: survivor %d status %v", seed, i, res.Status[i])
			}
		}
		checkHistory(t, res, impl, k)
	}
}

// TestAlg3UnderAdversaries: Algorithm 3 — (k−1)-set consensus for k
// participants named from a large space, through renaming and relaxed
// WRN_k instances — keeps its bound under every schedule-only
// adversary. Only a crash-stop victim may end stopped; everyone else
// decides a proposal, and the decisions satisfy the task.
func TestAlg3UnderAdversaries(t *testing.T) {
	const k, m = 3, 16
	ids := []int{11, 2, 7}
	cases := []struct {
		name    string
		mk      func(seed int64, r *Report) sim.Scheduler
		stopped int  // the crash-stop victim, or -1
		injects bool // whether the adversary records injections
	}{
		{"crash-during-op", func(seed int64, r *Report) sim.Scheduler {
			return NewCrashDuringOp(sim.NewRandom(seed), r, 1, 3)
		}, 1, true},
		{"crash-recovery", func(seed int64, r *Report) sim.Scheduler {
			return NewCrashRecovery(sim.NewRandom(seed), r, 0, 4, 30)
		}, -1, true},
		{"stall", func(seed int64, r *Report) sim.Scheduler {
			return NewStall(sim.NewRandom(seed), r, 2, 1, 40)
		}, -1, true},
		{"adaptive", func(seed int64, r *Report) sim.Scheduler {
			return NewAdaptive(seed, r)
		}, -1, false},
		{"composed", func(seed int64, r *Report) sim.Scheduler {
			return NewStall(NewCrashDuringOp(NewAdaptive(seed, r), r, 0, 2), r, 2, 3, 25)
		}, 0, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			injections := 0
			for seed := int64(0); seed < 10; seed++ {
				objects := map[string]sim.Object{}
				a, _ := setconsensus.NewAlg3(objects, "A", k, m, setconsensus.CoveringFamily(k))
				inputs := map[int]sim.Value{}
				progs := make([]sim.Program, k)
				for p, id := range ids {
					id, v := id, 1000+id
					inputs[p] = v
					progs[p] = func(ctx *sim.Ctx) sim.Value {
						ctx.BeginOp("A", "propose", v)
						out := a.Propose(ctx, id, v)
						ctx.EndOp("A", "propose", out)
						return out
					}
				}
				r := NewReport(seed)
				res, err := sim.Run(sim.Config{
					Objects:      objects,
					Programs:     progs,
					Scheduler:    Instrument(c.mk(seed, r), r),
					Seed:         seed,
					MaxSteps:     1 << 18,
					VerifyReplay: true,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for p := range ids {
					st := res.Status[p]
					if st != sim.StatusDone && !(p == c.stopped && st == sim.StatusStopped) {
						t.Fatalf("seed %d: P%d status %v", seed, p, st)
					}
				}
				if c.stopped >= 0 && r.Crashes() == 0 {
					t.Fatalf("seed %d: the crash never fired", seed)
				}
				if err := (tasks.SetConsensus{K: k - 1}).Check(tasks.OutcomeFromResult(res, inputs)); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				injections += len(r.Injections())
			}
			if c.injects && injections == 0 {
				t.Fatal("the adversary injected nothing in any seed")
			}
		})
	}
}

// TestBoundedConvertsHangToErrExhausted: a 1sWRN index reuse normally
// hangs the caller undetectably; through Bounded the caller gets the typed
// ErrExhausted and finishes.
func TestBoundedConvertsHangToErrExhausted(t *testing.T) {
	objects := map[string]sim.Object{
		"W": NewBounded(wrn.NewOneShot(2), 0),
	}
	progs := []sim.Program{
		func(ctx *sim.Ctx) sim.Value {
			ctx.Invoke("W", "WRN", 0, "first")
			return ctx.Invoke("W", "WRN", 0, "second") // illegal reuse
		},
	}
	res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, VerifyReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[0] != sim.StatusDone {
		t.Fatalf("caller status %v, want done (Bounded must never hang)", res.Status[0])
	}
	if !Exhausted(res.Outputs[0]) {
		t.Fatalf("output %v, want ErrExhausted", res.Outputs[0])
	}
	e, ok := res.Outputs[0].(error)
	if !ok || !errors.Is(e, ErrExhausted) {
		t.Fatalf("output %v does not satisfy errors.Is(·, ErrExhausted)", res.Outputs[0])
	}
}

// TestBoundedStepBudget: once a process spends its per-process budget the
// wrapper degrades instead of letting it spin.
func TestBoundedStepBudget(t *testing.T) {
	objects := map[string]sim.Object{
		"W": NewBounded(wrn.New(4), 3),
	}
	progs := []sim.Program{
		func(ctx *sim.Ctx) sim.Value {
			for i := 0; i < 10; i++ {
				if v := ctx.Invoke("W", "WRN", i%4, i); Exhausted(v) {
					return v
				}
			}
			return "never exhausted"
		},
	}
	res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, VerifyReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	if !Exhausted(res.Outputs[0]) {
		t.Fatalf("output %v, want ErrExhausted after 3-step budget", res.Outputs[0])
	}
}

// TestBoundedDoesNotDisturbLegalRuns: under budgetless wrapping a legal
// run behaves exactly as without the wrapper — no spurious errors.
func TestBoundedDoesNotDisturbLegalRuns(t *testing.T) {
	const k = 3
	objects := map[string]sim.Object{
		"W": NewBounded(wrn.NewOneShot(k), 0),
	}
	progs := make([]sim.Program, k)
	for i := 0; i < k; i++ {
		i := i
		progs[i] = func(ctx *sim.Ctx) sim.Value {
			return ctx.Invoke("W", "WRN", i, 100+i)
		}
	}
	res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, VerifyReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if Exhausted(out) {
			t.Fatalf("process %d spuriously exhausted on a legal one-shot use", i)
		}
	}
}
