package detobj_test

// Soak campaigns: high-volume randomized validation of the paper's
// algorithms, skipped under -short. The default `go test ./...` runs them;
// CI-style quick runs use `go test -short ./...`.
//
// Seed sweeps fan out over par.ForEach: every run is a pure function of
// its seed, workers report errors instead of calling t.Fatal (which must
// run on the test goroutine), and ForEach surfaces the lowest-seed
// failure — the same one the sequential loop would have hit first.

import (
	"fmt"
	"testing"

	"detobj/internal/catalogue"
	"detobj/internal/chaos"
	"detobj/internal/linearize"
	"detobj/internal/par"
	"detobj/internal/recoverable"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/tasks"
	"detobj/internal/wrn"
)

// TestSoakAlg5Linearizability: 1500 schedules per k across k = 2..6, each
// history checked.
func TestSoakAlg5Linearizability(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for k := 2; k <= 6; k++ {
		k := k
		spec := wrn.Spec(k)
		err := par.ForEach(1500, 0, func(s int) error {
			seed := int64(s)
			cfg, impl := catalogue.E5{K: k}.Build()
			cfg.Scheduler = sim.NewRandom(seed)
			cfg.Seed = seed * 7
			cfg.MaxSteps = 1 << 18
			res, err := sim.Run(cfg)
			if err != nil {
				return fmt.Errorf("k=%d seed=%d: %w", k, seed, err)
			}
			if !linearize.Check(spec, linearize.Ops(res.Trace, impl.Name())).OK {
				return fmt.Errorf("k=%d seed=%d: not linearizable", k, seed)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSoakAlg3Campaign: 400 runs of Algorithm 3 over rotating participant
// sets and both crash-free and crashing adversaries.
func TestSoakAlg3Campaign(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const k, m = 3, 32
	family := setconsensus.CoveringFamily(k)
	task := tasks.SetConsensus{K: k - 1}
	err := par.ForEach(400, 0, func(trial int) error {
		row := catalogue.E3{K: k, M: m, Family: family, IDs: []int{(trial * 3) % m, (trial*3 + 11) % m, (trial*3 + 19) % m}}
		inputs := map[int]sim.Value{}
		for p, id := range row.IDs {
			row.Inputs = append(row.Inputs, fmt.Sprintf("v%d", id))
			inputs[p] = row.Inputs[p]
		}
		cfg, ones := row.Build()
		cfg.Scheduler = sim.NewRandom(int64(trial))
		if trial%4 == 3 {
			cfg.Scheduler = sim.NewCrashing(sim.NewRandom(int64(trial)), trial%k)
		}
		cfg.MaxSteps = 1 << 20
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
		o := tasks.OutcomeFromResult(res, inputs)
		if err := task.Check(o); err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
		for l, one := range ones {
			for i := 0; i < k; i++ {
				if one.Invocations(i) > 1 {
					return fmt.Errorf("trial %d: instance %d index %d used twice", trial, l, i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSoakChaosAdversaries: the chaos sweep — every adversary stack over
// E5's Algorithm 5 row, 300 seeds each, replay-verified, with the crash
// history (pending operations included) checked for linearizability. A
// failure names the stack and the seed. Each run is a pure function of
// its seed, so `go test -run TestSoakChaosAdversaries .` reproduces it.
// The stacks keep their own parameters on purpose: they sweep wider
// grids than cmd/chaos, whose golden file fixes its own, so the
// driver's runs are not these.
func TestSoakChaosAdversaries(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const k = 4
	stacks := []struct {
		name string
		mk   func(seed int64, r *chaos.Report) sim.Scheduler
	}{
		{"crash-during-op", func(seed int64, r *chaos.Report) sim.Scheduler {
			return chaos.NewCrashDuringOp(sim.NewRandom(seed), r, int(seed)%k, int(seed)%6)
		}},
		{"crash-recovery", func(seed int64, r *chaos.Report) sim.Scheduler {
			return chaos.NewCrashRecovery(sim.NewRandom(seed), r, int(seed)%k, int(seed)%10, 25)
		}},
		{"stall", func(seed int64, r *chaos.Report) sim.Scheduler {
			return chaos.NewStall(sim.NewRandom(seed), r, int(seed)%k, int(seed)%8, 50)
		}},
		{"adaptive", func(seed int64, r *chaos.Report) sim.Scheduler {
			return chaos.NewAdaptive(seed, r)
		}},
		{"composed", func(seed int64, r *chaos.Report) sim.Scheduler {
			return chaos.NewStall(
				chaos.NewCrashDuringOp(chaos.NewAdaptive(seed, r), r, int(seed)%k, 2),
				r, (int(seed)+1)%k, 5, 30)
		}},
	}
	spec := wrn.Spec(k)
	for _, s := range stacks {
		s := s
		err := par.ForEach(300, 0, func(sd int) error {
			seed := int64(sd)
			r := chaos.NewReport(seed)
			cfg, impl := catalogue.E5{K: k}.Build()
			cfg.Scheduler = chaos.Instrument(s.mk(seed, r), r)
			cfg.Seed = seed
			cfg.MaxSteps = 1 << 18
			cfg.VerifyReplay = true
			res, err := sim.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s seed=%d: %w\n%s", s.name, seed, err, r)
			}
			done, pending := linearize.OpsWithPending(res.Trace, impl.Name())
			if !linearize.Check(spec, append(done, pending...)).OK {
				return fmt.Errorf("%s seed=%d: chaos history not linearizable\n%s", s.name, seed, r)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSoakCrashRestartRecoverable: the crash-restart soak — every
// restart adversary stack over the recoverable WRN_k, 300 seeds each,
// replay-verified. Each run must terminate with every process Done, an
// exact restart ledger (Restarts == Crashes, Recoveries == 0: amnesiac
// restarts are not stop-the-world recoveries), and a durable journal
// proving each operation mutated the cells exactly once no matter how
// many incarnations re-invoked it. A failure names the stack and the
// seed, and `go test -run TestSoakCrashRestartRecoverable .` reproduces
// it. As in TestSoakChaosAdversaries, the stacks keep their own
// parameters on purpose: they crash at more steps than cmd/chaos's
// golden-pinned sweep, which also drives a recoverable register.
func TestSoakCrashRestartRecoverable(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const k = 3
	stacks := []struct {
		name string
		mk   func(seed int64, r *chaos.Report) sim.Scheduler
	}{
		{"crash-restart", func(seed int64, r *chaos.Report) sim.Scheduler {
			return chaos.NewCrashRestart(sim.NewRandom(seed), r, int(seed)%k, 2+int(seed)%5, 3)
		}},
		{"repeated-restart", func(seed int64, r *chaos.Report) sim.Scheduler {
			return chaos.NewRepeatedCrashRestart(sim.NewRandom(seed), r, int(seed)%k, 2, 2, 3)
		}},
		{"adaptive-restart", func(seed int64, r *chaos.Report) sim.Scheduler {
			return chaos.NewAdaptiveRestart(sim.NewRandom(seed), r, seed, 4)
		}},
	}
	for _, s := range stacks {
		s := s
		err := par.ForEach(300, 0, func(sd int) error {
			seed := int64(sd)
			r := chaos.NewReport(seed)
			objects := map[string]sim.Object{}
			wrh := recoverable.NewWRN(objects, "RW", k)
			progs := make([]sim.Program, k)
			for i := 0; i < k; i++ {
				i := i
				progs[i] = func(ctx *sim.Ctx) sim.Value {
					ctx.BeginOp("RW", "WRN", i, 100+i)
					out := wrh.WRN(ctx, i, i, 100+i)
					ctx.EndOp("RW", "WRN", out)
					return out
				}
			}
			res, err := sim.Run(sim.Config{
				Objects:      objects,
				Programs:     progs,
				Scheduler:    chaos.Instrument(s.mk(seed, r), r),
				Recovery:     wrh.Recovery(func(proc int) int { return proc }),
				Seed:         seed,
				MaxSteps:     1 << 18,
				VerifyReplay: true,
			})
			if err != nil {
				return fmt.Errorf("%s seed=%d: %w\n%s", s.name, seed, err, r)
			}
			for p, st := range res.Status {
				if st != sim.StatusDone {
					return fmt.Errorf("%s seed=%d: proc %d status %v, want Done\n%s", s.name, seed, p, st, r)
				}
			}
			if r.Recoveries() != 0 || r.Restarts() != r.Crashes() {
				return fmt.Errorf("%s seed=%d: restart ledger off: crashes=%d restarts=%d recoveries=%d",
					s.name, seed, r.Crashes(), r.Restarts(), r.Recoveries())
			}
			core := objects["RW.core"].(*recoverable.WRNCore)
			for opid := 0; opid < k; opid++ {
				if n := core.ApplyCount(opid); n != 1 {
					return fmt.Errorf("%s seed=%d: op %d applied %d times, want exactly once\n%s",
						s.name, seed, opid, n, r)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSoakBoundedNeverHangs: 500 seeds of adversarial scheduling over a
// budgeted Bounded 1sWRN with deliberately illegal reuse mixed in; every
// process must finish with a value or ErrExhausted — a hang would show up
// as anything else in the status vector.
func TestSoakBoundedNeverHangs(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const k = 4
	err := par.ForEach(500, 0, func(sd int) error {
		seed := int64(sd)
		r := chaos.NewReport(seed)
		objects := map[string]sim.Object{
			"W": chaos.NewBounded(wrn.NewOneShot(k), 6),
		}
		progs := make([]sim.Program, k)
		for i := 0; i < k; i++ {
			i := i
			progs[i] = func(ctx *sim.Ctx) sim.Value {
				// Processes deliberately collide on index i%2 — reuse is
				// illegal and must degrade, not hang.
				for j := 0; j < 4; j++ {
					if v := ctx.Invoke("W", "WRN", (i+j)%2, i*10+j); chaos.Exhausted(v) {
						return v
					}
				}
				return "done"
			}
		}
		res, err := sim.Run(sim.Config{
			Objects:      objects,
			Programs:     progs,
			Scheduler:    chaos.Instrument(chaos.NewAdaptive(seed, r), r),
			Seed:         seed,
			MaxSteps:     1 << 18,
			VerifyReplay: true,
		})
		if err != nil {
			return fmt.Errorf("seed=%d: %w", seed, err)
		}
		for i, st := range res.Status {
			if st != sim.StatusDone {
				return fmt.Errorf("seed=%d: process %d ended %v — Bounded must never hang", seed, i, st)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSoakAlg6WideSweep: Algorithm 6 across a grid of (n, k) with 100
// seeds each.
func TestSoakAlg6WideSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for _, k := range []int{3, 4, 5, 6} {
		for _, n := range []int{k, 2 * k, 3*k - 1, 4 * k} {
			k, n := k, n
			task := tasks.SetConsensus{K: setconsensus.Guarantee(n, k)}
			row := catalogue.E9{K: k, Inputs: make([]sim.Value, n)}
			inputs := map[int]sim.Value{}
			for i := range row.Inputs {
				row.Inputs[i] = i
				inputs[i] = i
			}
			err := par.ForEach(100, 0, func(sd int) error {
				seed := int64(sd)
				cfg := row.Config()
				cfg.Scheduler = sim.NewRandom(seed)
				res, err := sim.Run(cfg)
				if err != nil {
					return fmt.Errorf("n=%d k=%d seed=%d: %w", n, k, seed, err)
				}
				o := tasks.OutcomeFromResult(res, inputs)
				if err := task.Check(o); err != nil {
					return fmt.Errorf("n=%d k=%d seed=%d: %w", n, k, seed, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
