// Command substrates runs the substrate experiments: the AADGMS snapshot
// and renaming validity checks (E12), the safe-agreement/BG-simulation
// guarantees (E13), the immediate-snapshot properties (E14), and the
// universal-construction checks (E15). See EXPERIMENTS.md.
//
// Usage:
//
//	substrates [-exp e12|e13|e14|e15|all] [-runs N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"detobj/internal/bgsim"
	"detobj/internal/immediate"
	"detobj/internal/iterated"
	"detobj/internal/linearize"
	"detobj/internal/modelcheck"
	"detobj/internal/renaming"
	"detobj/internal/sim"
	"detobj/internal/snapshot"
	"detobj/internal/tasks"
	"detobj/internal/universal"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e12, e13, e14, e15, e16 or all")
	runs := flag.Int("runs", 200, "random schedules per configuration")
	flag.Parse()
	if err := run(os.Stdout, *exp, *runs); err != nil {
		fmt.Fprintln(os.Stderr, "substrates:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, runs int) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", runs)
	}
	type experiment struct {
		name string
		fn   func(io.Writer, int) error
	}
	all := []experiment{
		{"e12", expE12}, {"e13", expE13}, {"e14", expE14}, {"e15", expE15}, {"e16", expE16},
	}
	matched := false
	for _, e := range all {
		if exp == "all" || exp == e.name {
			matched = true
			if err := e.fn(w, runs); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// expE12: snapshot implementation linearizability and renaming validity.
func expE12(w io.Writer, runs int) error {
	fmt.Fprintln(w, "E12 Substrates: AADGMS snapshot from registers; (2k-1)-renaming from snapshots")
	fmt.Fprintln(w, "substrate   config        schedules  valid")
	spec := snapshotSpec(3)
	ok := 0
	for seed := int64(0); seed < int64(runs); seed++ {
		objects := map[string]sim.Object{}
		s := snapshot.NewImpl(objects, "R", 3, "⊥")
		progs := make([]sim.Program, 3)
		for i := 0; i < 3; i++ {
			i := i
			progs[i] = func(ctx *sim.Ctx) sim.Value {
				v := fmt.Sprintf("p%d", i)
				ctx.BeginOp("SNAP", "update", i, v)
				s.Update(ctx, i, v)
				ctx.EndOp("SNAP", "update", nil)
				ctx.BeginOp("SNAP", "scan")
				view := s.Scan(ctx)
				ctx.EndOp("SNAP", "scan", view)
				return nil
			}
		}
		res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, Scheduler: sim.NewRandom(seed)})
		if err != nil {
			return err
		}
		if linearize.Check(spec, linearize.Ops(res.Trace, "SNAP")).OK {
			ok++
		}
	}
	fmt.Fprintf(w, "%-11s %-13s %-10d %d/%d\n", "snapshot", "3 writers", runs, ok, runs)
	if ok != runs {
		fmt.Fprintln(w)
		return fmt.Errorf("e12: %d/%d snapshot runs not linearizable", runs-ok, runs)
	}

	ids := []int{19, 3, 27, 8}
	task := tasks.Renaming{Names: 2*len(ids) - 1}
	ok = 0
	for seed := int64(0); seed < int64(runs); seed++ {
		objects := map[string]sim.Object{}
		p := renaming.New(objects, "REN", 32)
		progs := make([]sim.Program, len(ids))
		inputs := map[int]sim.Value{}
		for i, id := range ids {
			inputs[i] = id
			progs[i] = p.Program(id)
		}
		res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, Scheduler: sim.NewRandom(seed), MaxSteps: 1 << 18})
		if err != nil {
			return err
		}
		if task.Check(tasks.OutcomeFromResult(res, inputs)) == nil && res.AllDone() {
			ok++
		}
	}
	fmt.Fprintf(w, "%-11s %-13s %-10d %d/%d\n\n", "renaming", "4 of 32", runs, ok, runs)
	if ok != runs {
		return fmt.Errorf("e12: %d/%d renaming runs invalid", runs-ok, runs)
	}
	return nil
}

// snapshotSpec is the sequential snapshot specification over n slots.
func snapshotSpec(n int) linearize.Spec {
	return linearize.Spec{
		Init: func() any {
			s := make([]sim.Value, n)
			for i := range s {
				s[i] = "⊥"
			}
			return s
		},
		Apply: func(state any, name string, args []sim.Value) (any, sim.Value) {
			cells := state.([]sim.Value)
			switch name {
			case "update":
				next := make([]sim.Value, n)
				copy(next, cells)
				next[args[0].(int)] = args[1]
				return next, nil
			case "scan":
				out := make([]sim.Value, n)
				copy(out, cells)
				return cells, out
			default:
				panic("unknown op " + name)
			}
		},
		Equal: func(observed, specified sim.Value) bool {
			if observed == nil && specified == nil {
				return true
			}
			a, aok := observed.([]sim.Value)
			b, bok := specified.([]sim.Value)
			if !aok || !bok || len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		},
	}
}

// expE13: BG simulation — consistency and the crash-point sweep.
func expE13(w io.Writer, _ int) error {
	fmt.Fprintln(w, "E13 BG simulation: n simulators run an m-process snapshot protocol via safe agreement")
	fmt.Fprintln(w, "sims  procs  crash-points  survivor-done  max-blocked  bound")
	proto := bgsim.Protocol{
		Rounds: 1,
		Write:  func(_ int, input sim.Value, _ [][]sim.Value) sim.Value { return input },
		Decide: func(_ int, _ sim.Value, scans [][]sim.Value) sim.Value {
			seen := 0
			for _, v := range scans[0] {
				if v != nil {
					seen++
				}
			}
			return seen
		},
	}
	inputs := []sim.Value{"a", "b", "c"}
	const sweep = 60
	done, maxBlocked := 0, 0
	for j := 0; j <= sweep; j++ {
		objects := map[string]sim.Object{}
		s := bgsim.New(objects, "BG", 2, inputs, proto, 50)
		order := make([]int, j)
		res, err := sim.Run(sim.Config{
			Objects:   objects,
			Programs:  s.Programs(),
			Scheduler: &sim.Fixed{Order: order, Fallback: sim.NewCrashing(nil, 0)},
			MaxSteps:  1 << 20,
		})
		if err != nil {
			return err
		}
		if res.Status[1] == sim.StatusDone {
			done++
			blocked := 0
			for _, o := range res.Outputs[1].(bgsim.Outputs) {
				if o == nil {
					blocked++
				}
			}
			if blocked > maxBlocked {
				maxBlocked = blocked
			}
		}
	}
	fmt.Fprintf(w, "%-5d %-6d %-13d %d/%d %14d  %d\n\n", 2, len(inputs), sweep+1, done, sweep+1, maxBlocked, 1)
	return nil
}

// expE14: immediate snapshot — exhaustive property verification.
func expE14(w io.Writer, _ int) error {
	fmt.Fprintln(w, "E14 Immediate snapshot (BG floors): exhaustive property verification")
	fmt.Fprintln(w, "n   executions  violations")
	task := tasks.ImmediateSnapshot{}
	for n := 2; n <= 3; n++ {
		n := n
		inputs := map[int]sim.Value{}
		for i := 0; i < n; i++ {
			inputs[i] = fmt.Sprintf("v%d", i)
		}
		violations := 0
		count, err := modelcheck.Explore(func() sim.Config {
			objects := map[string]sim.Object{}
			pr := immediate.New(objects, "IS", n)
			progs := make([]sim.Program, n)
			for i := 0; i < n; i++ {
				progs[i] = pr.Program(i, fmt.Sprintf("v%d", i))
			}
			return sim.Config{Objects: objects, Programs: progs}
		}, 1<<20, func(e modelcheck.Execution) error {
			o := tasks.Outcome{Inputs: inputs, Outputs: map[int]sim.Value{}}
			for i := 0; i < n; i++ {
				o.Outputs[i] = e.Result.Outputs[i]
			}
			if task.Check(o) != nil {
				violations++
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-3d %-11d %d\n", n, count, violations)
		if violations > 0 {
			fmt.Fprintln(w)
			return fmt.Errorf("e14: %d immediate-snapshot violations for n=%d", violations, n)
		}
	}
	fmt.Fprintln(w)
	return nil
}

// expE15: the universal construction — linearizable counter and helping.
func expE15(w io.Writer, runs int) error {
	fmt.Fprintln(w, "E15 Universal construction (Herlihy): objects from consensus cells")
	fmt.Fprintln(w, "check                         schedules  ok")
	spec := linearize.Spec{
		Init: func() any { return 0 },
		Apply: func(state any, name string, args []sim.Value) (any, sim.Value) {
			n := state.(int)
			if name == "inc" {
				return n + 1, n + 1
			}
			return n, n
		},
	}
	ok := 0
	for seed := int64(0); seed < int64(runs); seed++ {
		objects := map[string]sim.Object{}
		u := universal.New(objects, "U", 3, 16, spec)
		progs := make([]sim.Program, 3)
		for p := 0; p < 3; p++ {
			p := p
			progs[p] = func(ctx *sim.Ctx) sim.Value {
				sess := u.NewSession(p)
				ctx.BeginOp("CTR", "inc")
				out := sess.Apply(ctx, "inc")
				ctx.EndOp("CTR", "inc", out)
				return out
			}
		}
		res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, Scheduler: sim.NewRandom(seed), MaxSteps: 1 << 18})
		if err != nil {
			return err
		}
		if res.AllDone() && linearize.Check(spec, linearize.Ops(res.Trace, "CTR")).OK {
			ok++
		}
	}
	fmt.Fprintf(w, "%-29s %-10d %d/%d\n\n", "universal counter linearizes", runs, ok, runs)
	if ok != runs {
		return fmt.Errorf("e15: %d/%d universal-counter runs not linearizable", runs-ok, runs)
	}
	return nil
}

// expE16: the protocol complex — distinct IIS outcome patterns equal the
// chromatic-subdivision simplex counts.
func expE16(w io.Writer, _ int) error {
	fmt.Fprintln(w, "E16 Iterated immediate snapshot: the protocol complex, counted")
	fmt.Fprintln(w, "n   rounds  executions  patterns  theory")
	cases := []struct{ n, rounds, want int }{
		{2, 1, 3}, {2, 2, 9}, {3, 1, 13},
	}
	for _, c := range cases {
		seen := map[string]bool{}
		count, err := modelcheck.Explore(func() sim.Config {
			objects := map[string]sim.Object{}
			pr := iterated.New(objects, "IIS", c.n, c.rounds)
			progs := make([]sim.Program, c.n)
			for i := 0; i < c.n; i++ {
				progs[i] = pr.Program(i, fmt.Sprintf("v%d", i))
			}
			return sim.Config{Objects: objects, Programs: progs}
		}, 1<<21, func(e modelcheck.Execution) error {
			seen[iterated.OutcomeSignature(e.Result.Outputs)] = true
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-3d %-7d %-11d %-9d %d\n", c.n, c.rounds, count, len(seen), c.want)
		if len(seen) != c.want {
			fmt.Fprintln(w)
			return fmt.Errorf("e16: n=%d rounds=%d produced %d outcome patterns, theory says %d", c.n, c.rounds, len(seen), c.want)
		}
	}
	fmt.Fprintln(w)
	return nil
}
