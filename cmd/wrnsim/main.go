// Command wrnsim runs the paper's WRN-based set-consensus algorithms under
// random and exhaustive schedules and prints the experiment tables E1, E3,
// E4, E5 and E9 (see EXPERIMENTS.md).
//
// Random sweeps split the base seed per run (run r uses seed+r), so the
// result table is identical for every -parallel value; exhaustive rows run
// on modelcheck.Explore. testdata/ pins the tables byte for byte.
// wrnsim exits non-zero when any experiment's correctness columns show a
// violation (E1/E3/E9 violations, E3/E4 illegal uses, E5 non-linearizable
// runs), so a failed sweep cannot masquerade as a clean one.
//
// Usage:
//
//	wrnsim [-exp e1|e3|e4|e5|e9|all] [-runs N] [-seed S] [-parallel P]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"detobj/internal/linearize"
	"detobj/internal/modelcheck"
	"detobj/internal/par"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/tasks"
	"detobj/internal/wrn"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e1, e3, e4, e5, e9 or all")
	runs := flag.Int("runs", 1000, "random schedules per configuration")
	seed := flag.Int64("seed", 1, "base seed")
	parallel := flag.Int("parallel", 0, "worker goroutines for seed sweeps (0 = GOMAXPROCS)")
	flag.Parse()
	if err := run(os.Stdout, *exp, *runs, *seed, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "wrnsim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, runs int, seed int64, workers int) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", runs)
	}
	workers = par.Normalize(workers, -1)
	type experiment struct {
		name string
		fn   func(io.Writer, int, int64, int) error
	}
	all := []experiment{
		{"e1", expE1}, {"e3", expE3}, {"e4", expE4}, {"e5", expE5}, {"e9", expE9},
	}
	matched := false
	var failures []string
	for _, e := range all {
		if exp == "all" || exp == e.name {
			matched = true
			if err := e.fn(w, runs, seed, workers); err != nil {
				// Keep printing the remaining tables; report every failed
				// experiment rather than just the first.
				failures = append(failures, fmt.Sprintf("%s: %v", e.name, err))
			}
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(w, "FAIL", f)
		}
		return fmt.Errorf("%d experiment(s) failed", len(failures))
	}
	return nil
}

// expE1: Algorithm 2 solves (k−1)-set consensus for k processes.
func expE1(w io.Writer, runs int, seed int64, workers int) error {
	fmt.Fprintln(w, "E1  Algorithm 2: (k-1)-set consensus for k processes from one 1sWRN_k")
	fmt.Fprintln(w, "k   schedules  mode        max-distinct  bound  violations")
	totalViolations := 0
	for k := 3; k <= 8; k++ {
		task := tasks.SetConsensus{K: k - 1}
		if k <= 6 {
			// Exhaustive: the protocol takes one step per process.
			maxDistinct, count, violations := 0, 0, 0
			_, err := modelcheck.Explore(func() sim.Config {
				objects := map[string]sim.Object{}
				return sim.Config{Objects: objects, Programs: alg2Programs(objects, k)}
			}, 0, func(e modelcheck.Execution) error {
				count++
				o := tasks.OutcomeFromResult(e.Result, alg2Inputs(k))
				if task.Check(o) != nil {
					violations++
				}
				if d := o.DistinctOutputs(); d > maxDistinct {
					maxDistinct = d
				}
				return nil
			})
			if err != nil {
				return err
			}
			totalViolations += violations
			fmt.Fprintf(w, "%-3d %-10d %-11s %-13d %-6d %d\n", k, count, "exhaustive", maxDistinct, k-1, violations)
			continue
		}
		type slot struct {
			distinct  int
			violation bool
		}
		slots := make([]slot, runs)
		err := par.ForEach(runs, workers, func(r int) error {
			objects := map[string]sim.Object{}
			progs := alg2Programs(objects, k)
			res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, Scheduler: sim.NewRandom(seed + int64(r))})
			if err != nil {
				return err
			}
			o := tasks.OutcomeFromResult(res, alg2Inputs(k))
			slots[r] = slot{distinct: o.DistinctOutputs(), violation: task.Check(o) != nil}
			return nil
		})
		if err != nil {
			return err
		}
		maxDistinct, violations := 0, 0
		for _, s := range slots {
			if s.violation {
				violations++
			}
			if s.distinct > maxDistinct {
				maxDistinct = s.distinct
			}
		}
		totalViolations += violations
		fmt.Fprintf(w, "%-3d %-10d %-11s %-13d %-6d %d\n", k, runs, "random", maxDistinct, k-1, violations)
	}
	fmt.Fprintln(w)
	if totalViolations > 0 {
		return fmt.Errorf("%d set-consensus violations", totalViolations)
	}
	return nil
}

func alg2Programs(objects map[string]sim.Object, k int) []sim.Program {
	vs := make([]sim.Value, k)
	for i := range vs {
		vs[i] = i * 10
	}
	return setconsensus.NewAlg2(objects, "W", vs)
}

func alg2Inputs(k int) map[int]sim.Value {
	inputs := map[int]sim.Value{}
	for i := 0; i < k; i++ {
		inputs[i] = i * 10
	}
	return inputs
}

// expE3: Algorithm 3 with renaming and relaxed WRN instances.
func expE3(w io.Writer, runs int, seed int64, workers int) error {
	fmt.Fprintln(w, "E3  Algorithm 3: (k-1)-set consensus for k participants out of M names")
	fmt.Fprintln(w, "k   M    family      instances  schedules  max-distinct  bound  violations  illegal-uses")
	totalViolations, totalIllegal := 0, 0
	for _, cfg := range []struct{ k, m int }{{3, 16}, {3, 64}, {4, 32}} {
		family := setconsensus.CoveringFamily(cfg.k)
		ids := pickIDs(cfg.k, cfg.m)
		task := tasks.SetConsensus{K: cfg.k - 1}
		type slot struct {
			distinct  int
			violation bool
			illegal   int
		}
		slots := make([]slot, runs)
		err := par.ForEach(runs, workers, func(r int) error {
			objects := map[string]sim.Object{}
			a, ones := setconsensus.NewAlg3(objects, "A", cfg.k, cfg.m, family)
			inputs := map[int]sim.Value{}
			progs := make([]sim.Program, cfg.k)
			for p, id := range ids {
				v := 1000 + id
				inputs[p] = v
				progs[p] = a.Program(id, v)
			}
			res, err := sim.Run(sim.Config{
				Objects:   objects,
				Programs:  progs,
				Scheduler: sim.NewRandom(seed + int64(r)),
				MaxSteps:  1 << 20,
			})
			if err != nil {
				return err
			}
			o := tasks.OutcomeFromResult(res, inputs)
			s := slot{distinct: o.DistinctOutputs(), violation: task.Check(o) != nil || !res.AllDone()}
			for _, one := range ones {
				for i := 0; i < cfg.k; i++ {
					if one.Invocations(i) > 1 {
						s.illegal++
					}
				}
			}
			slots[r] = s
			return nil
		})
		if err != nil {
			return err
		}
		maxDistinct, violations, illegal := 0, 0, 0
		for _, s := range slots {
			if s.violation {
				violations++
			}
			illegal += s.illegal
			if s.distinct > maxDistinct {
				maxDistinct = s.distinct
			}
		}
		totalViolations += violations
		totalIllegal += illegal
		fmt.Fprintf(w, "%-3d %-4d %-11s %-10d %-10d %-13d %-6d %-11d %d\n",
			cfg.k, cfg.m, "covering", family.Len(), runs, maxDistinct, cfg.k-1, violations, illegal)
	}
	fmt.Fprintln(w)
	if totalViolations > 0 || totalIllegal > 0 {
		return fmt.Errorf("%d violations, %d illegal one-shot uses", totalViolations, totalIllegal)
	}
	return nil
}

func pickIDs(k, m int) []int {
	ids := make([]int, k)
	for i := range ids {
		ids[i] = (i*7 + 3) % m
		for contains(ids[:i], ids[i]) {
			ids[i] = (ids[i] + 1) % m
		}
	}
	return ids
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// expE4: the relaxed WRN wrapper never uses the one-shot object illegally.
func expE4(w io.Writer, runs int, seed int64, workers int) error {
	fmt.Fprintln(w, "E4  Algorithm 4: RlxWRN flag principle (claims 19-21)")
	fmt.Fprintln(w, "k   contenders  schedules  illegal-uses  hangs  sole-access-forwarded")
	totalIllegal := 0
	for _, cfg := range []struct{ k, procs int }{{3, 5}, {4, 6}, {6, 8}} {
		type slot struct {
			illegal, hangs int
			forwarded      bool
		}
		slots := make([]slot, runs)
		err := par.ForEach(runs, workers, func(r int) error {
			objects := map[string]sim.Object{}
			rlx, one := wrn.NewRelaxed(objects, "W", cfg.k)
			progs := make([]sim.Program, cfg.procs)
			for p := 0; p < cfg.procs; p++ {
				p := p
				progs[p] = func(ctx *sim.Ctx) sim.Value {
					// Everyone hammers index 0; one process alone uses index 1.
					if p == 0 {
						return rlx.RlxWRN(ctx, 1, fmt.Sprintf("solo%d", p))
					}
					return rlx.RlxWRN(ctx, 0, fmt.Sprintf("p%d", p))
				}
			}
			res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, Scheduler: sim.NewRandom(seed + int64(r))})
			if err != nil {
				return err
			}
			var s slot
			for i := 0; i < cfg.k; i++ {
				if one.Invocations(i) > 1 {
					s.illegal++
				}
			}
			for _, st := range res.Status {
				if st == sim.StatusHung {
					s.hangs++
				}
			}
			s.forwarded = one.Invocations(1) == 1
			slots[r] = s
			return nil
		})
		if err != nil {
			return err
		}
		illegal, hangs, forwarded := 0, 0, 0
		for _, s := range slots {
			illegal += s.illegal
			hangs += s.hangs
			if s.forwarded {
				forwarded++
			}
		}
		totalIllegal += illegal
		fmt.Fprintf(w, "%-3d %-11d %-10d %-13d %-6d %d/%d\n", cfg.k, cfg.procs, runs, illegal, hangs, forwarded, runs)
	}
	fmt.Fprintln(w)
	if totalIllegal > 0 {
		return fmt.Errorf("%d illegal one-shot uses", totalIllegal)
	}
	return nil
}

// expE5: Algorithm 5 linearizability.
func expE5(w io.Writer, runs int, seed int64, workers int) error {
	fmt.Fprintln(w, "E5  Algorithm 5: linearizable 1sWRN_k from strong set election (Cor. 37)")
	fmt.Fprintln(w, "k   schedules  linearizable  claim23-bottoms  claim24-successors")
	nonLinear := 0
	for k := 2; k <= 5; k++ {
		type slot struct {
			lin, bottom, succ bool
		}
		slots := make([]slot, runs)
		err := par.ForEach(runs, workers, func(r int) error {
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
				Objects:   objects,
				Programs:  progs,
				Scheduler: sim.NewRandom(seed + int64(r)),
				Seed:      seed * 31,
				MaxSteps:  1 << 18,
			})
			if err != nil {
				return err
			}
			ops := linearize.Ops(res.Trace, impl.Name())
			var s slot
			s.lin = linearize.Check(wrn.Spec(k), ops).OK
			for p := 0; p < k; p++ {
				if wrn.IsBottom(res.Outputs[p]) {
					s.bottom = true
				} else if res.Outputs[p] == 100+(p+1)%k {
					s.succ = true
				}
			}
			slots[r] = s
			return nil
		})
		if err != nil {
			return err
		}
		lin, bottoms, successors := 0, 0, 0
		for _, s := range slots {
			if s.lin {
				lin++
			}
			if s.bottom {
				bottoms++
			}
			if s.succ {
				successors++
			}
		}
		nonLinear += runs - lin
		fmt.Fprintf(w, "%-3d %-10d %-13d %-16d %d\n", k, runs, lin, bottoms, successors)
	}
	fmt.Fprintln(w)
	if nonLinear > 0 {
		return fmt.Errorf("%d non-linearizable runs", nonLinear)
	}
	return nil
}

// expE9: Algorithm 6 ratio table.
func expE9(w io.Writer, runs int, seed int64, workers int) error {
	fmt.Fprintln(w, "E9  Algorithm 6: m-set consensus for n processes from WRN_k (§7.1)")
	fmt.Fprintln(w, "n    k   guarantee  ratio-ok  schedules  max-distinct  violations")
	totalViolations := 0
	for _, cfg := range []struct{ n, k int }{{3, 3}, {6, 3}, {7, 3}, {12, 3}, {9, 4}, {10, 5}, {24, 3}} {
		m := setconsensus.Guarantee(cfg.n, cfg.k)
		task := tasks.SetConsensus{K: m}
		type slot struct {
			distinct  int
			violation bool
		}
		slots := make([]slot, runs)
		err := par.ForEach(runs, workers, func(r int) error {
			objects := map[string]sim.Object{}
			a := setconsensus.NewAlg6(objects, "G", cfg.n, cfg.k)
			inputs := map[int]sim.Value{}
			progs := make([]sim.Program, cfg.n)
			for i := 0; i < cfg.n; i++ {
				v := i * 10
				inputs[i] = v
				progs[i] = a.Program(i, v)
			}
			res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, Scheduler: sim.NewRandom(seed + int64(r))})
			if err != nil {
				return err
			}
			o := tasks.OutcomeFromResult(res, inputs)
			slots[r] = slot{distinct: o.DistinctOutputs(), violation: task.Check(o) != nil}
			return nil
		})
		if err != nil {
			return err
		}
		maxDistinct, violations := 0, 0
		for _, s := range slots {
			if s.violation {
				violations++
			}
			if s.distinct > maxDistinct {
				maxDistinct = s.distinct
			}
		}
		totalViolations += violations
		fmt.Fprintf(w, "%-4d %-3d %-10d %-9v %-10d %-13d %d\n",
			cfg.n, cfg.k, m, setconsensus.RatioSufficient(cfg.n, m, cfg.k), runs, maxDistinct, violations)
	}
	fmt.Fprintln(w)
	if totalViolations > 0 {
		return fmt.Errorf("%d set-consensus violations", totalViolations)
	}
	return nil
}
