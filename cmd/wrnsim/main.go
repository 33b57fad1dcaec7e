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
	"slices"

	"detobj/internal/catalogue"
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
		vs := make([]sim.Value, k)
		inputs := map[int]sim.Value{}
		for i := range vs {
			vs[i] = i * 10
			inputs[i] = vs[i]
		}
		row := catalogue.E1{Inputs: vs}
		if k <= 6 {
			// Exhaustive: the protocol takes one step per process.
			maxDistinct, count, violations := 0, 0, 0
			_, err := modelcheck.Explore(row.Config, 0, func(e modelcheck.Execution) error {
				count++
				o := tasks.OutcomeFromResult(e.Result, inputs)
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
			cfg := row.Config()
			cfg.Scheduler = sim.NewRandom(seed + int64(r))
			res, err := sim.Run(cfg)
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
		fmt.Fprintf(w, "%-3d %-10d %-11s %-13d %-6d %d\n", k, runs, "random", maxDistinct, k-1, violations)
	}
	fmt.Fprintln(w)
	if totalViolations > 0 {
		return fmt.Errorf("%d set-consensus violations", totalViolations)
	}
	return nil
}

// expE3: Algorithm 3 with renaming and relaxed WRN instances.
func expE3(w io.Writer, runs int, seed int64, workers int) error {
	fmt.Fprintln(w, "E3  Algorithm 3: (k-1)-set consensus for k participants out of M names")
	fmt.Fprintln(w, "k   M    family      instances  schedules  max-distinct  bound  violations  illegal-uses")
	totalViolations, totalIllegal := 0, 0
	for _, cfg := range []struct{ k, m int }{{3, 16}, {3, 64}, {4, 32}} {
		row := catalogue.E3{K: cfg.k, M: cfg.m, Family: setconsensus.CoveringFamily(cfg.k), IDs: pickIDs(cfg.k, cfg.m)}
		inputs := map[int]sim.Value{}
		for p, id := range row.IDs {
			row.Inputs = append(row.Inputs, 1000+id)
			inputs[p] = row.Inputs[p]
		}
		task := tasks.SetConsensus{K: cfg.k - 1}
		type slot struct {
			distinct  int
			violation bool
			illegal   int
		}
		slots := make([]slot, runs)
		err := par.ForEach(runs, workers, func(r int) error {
			c, ones := row.Build()
			c.Scheduler = sim.NewRandom(seed + int64(r))
			c.MaxSteps = 1 << 20
			res, err := sim.Run(c)
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
			cfg.k, cfg.m, "covering", row.Family.Len(), runs, maxDistinct, cfg.k-1, violations, illegal)
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
		for slices.Contains(ids[:i], ids[i]) {
			ids[i] = (ids[i] + 1) % m
		}
	}
	return ids
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
		row := catalogue.E4{K: cfg.k, Procs: cfg.procs}
		err := par.ForEach(runs, workers, func(r int) error {
			c, one := row.Build()
			c.Scheduler = sim.NewRandom(seed + int64(r))
			res, err := sim.Run(c)
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
			cfg, impl := catalogue.E5{K: k}.Build()
			cfg.Scheduler = sim.NewRandom(seed + int64(r))
			cfg.Seed = seed * 31
			cfg.MaxSteps = 1 << 18
			res, err := sim.Run(cfg)
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
		row := catalogue.E9{K: cfg.k, Inputs: make([]sim.Value, cfg.n)}
		inputs := map[int]sim.Value{}
		for i := range row.Inputs {
			row.Inputs[i] = i * 10
			inputs[i] = row.Inputs[i]
		}
		type slot struct {
			distinct  int
			violation bool
		}
		slots := make([]slot, runs)
		err := par.ForEach(runs, workers, func(r int) error {
			c := row.Config()
			c.Scheduler = sim.NewRandom(seed + int64(r))
			res, err := sim.Run(c)
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
