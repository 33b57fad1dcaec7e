package main

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"

	"detobj/internal/bgsim"
	"detobj/internal/catalogue"
	"detobj/internal/chaos"
	"detobj/internal/consensus"
	"detobj/internal/core"
	"detobj/internal/immediate"
	"detobj/internal/iterated"
	"detobj/internal/linearize"
	"detobj/internal/modelcheck"
	"detobj/internal/par"
	"detobj/internal/recoverable"
	"detobj/internal/registers"
	"detobj/internal/renaming"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/snapshot"
	"detobj/internal/tasks"
	"detobj/internal/universal"
	"detobj/internal/wrn"
)

// expE1: Algorithm 2 solves (k−1)-set consensus for k processes.
func expE1(w io.Writer, sw sweep) error {
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
		slots := make([]slot, sw.runs)
		err := par.ForEach(sw.runs, sw.workers, func(r int) error {
			cfg := row.Config()
			cfg.Scheduler = sim.NewRandom(sw.seed + int64(r))
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
		fmt.Fprintf(w, "%-3d %-10d %-11s %-13d %-6d %d\n", k, sw.runs, "random", maxDistinct, k-1, violations)
	}
	fmt.Fprintln(w)
	if totalViolations > 0 {
		return fmt.Errorf("%d set-consensus violations", totalViolations)
	}
	return nil
}

// expE3: Algorithm 3 with renaming and relaxed WRN instances.
func expE3(w io.Writer, sw sweep) error {
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
		slots := make([]slot, sw.runs)
		err := par.ForEach(sw.runs, sw.workers, func(r int) error {
			c, ones := row.Build()
			c.Scheduler = sim.NewRandom(sw.seed + int64(r))
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
			cfg.k, cfg.m, "covering", row.Family.Len(), sw.runs, maxDistinct, cfg.k-1, violations, illegal)
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
func expE4(w io.Writer, sw sweep) error {
	fmt.Fprintln(w, "E4  Algorithm 4: RlxWRN flag principle (claims 19-21)")
	fmt.Fprintln(w, "k   contenders  schedules  illegal-uses  hangs  sole-access-forwarded")
	totalIllegal := 0
	for _, cfg := range []struct{ k, procs int }{{3, 5}, {4, 6}, {6, 8}} {
		type slot struct {
			illegal, hangs int
			forwarded      bool
		}
		slots := make([]slot, sw.runs)
		row := catalogue.E4{K: cfg.k, Procs: cfg.procs}
		err := par.ForEach(sw.runs, sw.workers, func(r int) error {
			c, one := row.Build()
			c.Scheduler = sim.NewRandom(sw.seed + int64(r))
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
		fmt.Fprintf(w, "%-3d %-11d %-10d %-13d %-6d %d/%d\n", cfg.k, cfg.procs, sw.runs, illegal, hangs, forwarded, sw.runs)
	}
	fmt.Fprintln(w)
	if totalIllegal > 0 {
		return fmt.Errorf("%d illegal one-shot uses", totalIllegal)
	}
	return nil
}

// expE5: Algorithm 5 linearizability.
func expE5(w io.Writer, sw sweep) error {
	fmt.Fprintln(w, "E5  Algorithm 5: linearizable 1sWRN_k from strong set election (Cor. 37)")
	fmt.Fprintln(w, "k   schedules  linearizable  claim23-bottoms  claim24-successors")
	nonLinear := 0
	for k := 2; k <= 5; k++ {
		type slot struct {
			lin, bottom, succ bool
		}
		slots := make([]slot, sw.runs)
		err := par.ForEach(sw.runs, sw.workers, func(r int) error {
			cfg, impl := catalogue.E5{K: k}.Build()
			cfg.Scheduler = sim.NewRandom(sw.seed + int64(r))
			cfg.Seed = sw.seed * 31
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
		nonLinear += sw.runs - lin
		fmt.Fprintf(w, "%-3d %-10d %-13d %-16d %d\n", k, sw.runs, lin, bottoms, successors)
	}
	fmt.Fprintln(w)
	if nonLinear > 0 {
		return fmt.Errorf("%d non-linearizable runs", nonLinear)
	}
	return nil
}

// expE9: Algorithm 6 ratio table.
func expE9(w io.Writer, sw sweep) error {
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
		slots := make([]slot, sw.runs)
		err := par.ForEach(sw.runs, sw.workers, func(r int) error {
			c := row.Config()
			c.Scheduler = sim.NewRandom(sw.seed + int64(r))
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
			cfg.n, cfg.k, m, setconsensus.RatioSufficient(cfg.n, m, cfg.k), sw.runs, maxDistinct, violations)
	}
	fmt.Fprintln(w)
	if totalViolations > 0 {
		return fmt.Errorf("%d set-consensus violations", totalViolations)
	}
	return nil
}

// expE6: the Lemma 38 obligations across the object zoo.
func expE6(w io.Writer, _ sweep) error {
	fmt.Fprintln(w, "E6  Lemma 38 mechanized: indistinguishability obligations per object")
	fmt.Fprintln(w, "    pass = no process can both survive an operation race and observe its order")
	fmt.Fprintln(w, "object          states  pairs   distinguishing  degenerate  verdict")

	type object struct {
		name  string
		init  modelcheck.Finite
		alpha []sim.Invocation
		// wantPass is the paper's classification: consensus number 1
		// passes, consensus number >= 2 must expose a distinguishing pair.
		wantPass bool
	}
	regAlpha := []sim.Invocation{
		{Op: "read"},
		{Op: "write", Args: []sim.Value{"p"}},
		{Op: "write", Args: []sim.Value{"q"}},
	}
	swapAlpha := []sim.Invocation{
		{Op: "swap", Args: []sim.Value{"p"}},
		{Op: "swap", Args: []sim.Value{"q"}},
	}
	cellAlpha := []sim.Invocation{
		{Op: "propose", Args: []sim.Value{"p"}},
		{Op: "propose", Args: []sim.Value{"q"}},
	}
	zoo := []object{
		{"register", registers.New("init"), regAlpha, true},
		{"WRN_3", wrn.New(3), modelcheck.WRNAlphabet(3, 2), true},
		{"WRN_4", wrn.New(4), modelcheck.WRNAlphabet(4, 2), true},
		{"WRN_5", wrn.New(5), modelcheck.WRNAlphabet(5, 2), true},
		{"WRN_6", wrn.New(6), modelcheck.WRNAlphabet(6, 2), true},
		{"1sWRN_3", wrn.NewOneShot(3), modelcheck.WRNAlphabet(3, 2), true},
		{"WRN_2=SWAP", wrn.New(2), modelcheck.WRNAlphabet(2, 2), false},
		{"swap", consensus.NewSwap(nil), swapAlpha, false},
		{"test-and-set", consensus.NewTestAndSet(), []sim.Invocation{{Op: "tas"}}, false},
		{"consensus-cell", consensus.NewCell(4), cellAlpha, false},
	}
	wrong := 0
	for _, r := range zoo {
		rep, err := modelcheck.CheckIndistinguishability(r.init, r.alpha, 1<<15)
		if err != nil {
			return err
		}
		verdict := "PASS (cannot solve 2-consensus this way)"
		if !rep.Passed() {
			verdict = "FAIL (exposes 2-consensus power)"
		}
		if rep.Passed() != r.wantPass {
			verdict += " ** UNEXPECTED **"
			wrong++
		}
		fmt.Fprintf(w, "%-15s %-7d %-7d %-15d %-11d %s\n",
			r.name, rep.States, rep.Pairs, len(rep.Failures), len(rep.Degenerate), verdict)
	}
	fmt.Fprintln(w)
	if wrong > 0 {
		return fmt.Errorf("%d object(s) contradict the paper's classification", wrong)
	}
	return nil
}

// symmetry is a catalogue row's symmetry as the reduced engines take
// it.
func symmetry(s catalogue.Symmetry) modelcheck.Symmetry {
	sym := modelcheck.SymmetricClasses(len(s.Inputs), s.Classes...)
	sym.Rename = modelcheck.RenameByInputs(s.Inputs)
	return sym
}

// expE11: valency analysis of the 2-consensus protocols.
func expE11(w io.Writer, _ sweep) error {
	fmt.Fprintln(w, "E11 Valency analysis: SWAP/WRN_2/TAS solve 2-consensus; the naive 3-process protocol breaks")
	fmt.Fprintln(w, "protocol            configs  executions  bivalent  critical  agreement")
	wrong := 0
	for _, r := range catalogue.E11() {
		rep, err := modelcheck.AnalyzeValency(r.Config, 0)
		if err != nil {
			return err
		}
		note := ""
		if rep.Agreement != r.Agreement {
			note = "  ** UNEXPECTED **"
			wrong++
		}
		fmt.Fprintf(w, "%-19s %-8d %-11d %-9d %-9d %v%s\n",
			r.Name, rep.Configs, rep.Executions, rep.Bivalent, rep.Critical, rep.Agreement, note)
	}
	fmt.Fprintln(w)
	if wrong > 0 {
		return fmt.Errorf("%d protocol(s) contradict the paper's classification", wrong)
	}
	return nil
}

// expE11r: the symmetry-reduction engine next to the exhaustive one.
// The E11 protocols are re-analyzed with AnalyzeValencyReduced under
// their proposer symmetries, printing the transposition table's
// accounting; every reconstructed count and verdict is cross-checked
// against the unreduced oracle and any divergence fails the row.
func expE11r(w io.Writer, _ sweep) error {
	fmt.Fprintln(w, "E11r Symmetry + transposition reduction vs the exhaustive oracle")
	fmt.Fprintln(w, "protocol            group  reduced  runs    hits    misses  executions  verdict")
	wrong := 0
	for _, r := range catalogue.E11() {
		oracle, err := modelcheck.AnalyzeValency(r.Config, 0)
		if err != nil {
			return err
		}
		rep, srep, err := modelcheck.AnalyzeValencyReduced(r.Config, modelcheck.Reduced{Sym: symmetry(r.Sym)}, 0)
		if err != nil {
			return fmt.Errorf("%s reduced: %w", r.Name, err)
		}
		verdict := "match"
		if rep.Configs != oracle.Configs || rep.Executions != oracle.Executions ||
			rep.Bivalent != oracle.Bivalent || rep.Critical != oracle.Critical ||
			rep.Agreement != oracle.Agreement || !slices.Equal(rep.Values, oracle.Values) {
			verdict = "** MISMATCH **"
			wrong++
		}
		fmt.Fprintf(w, "%-19s %-6d %-8d %-7d %-7d %-7d %-11d %s\n",
			r.Name, srep.Group, srep.ReducedConfigs, srep.Runs, srep.Hits, srep.Misses, srep.Executions, verdict)
	}
	return reducedTail(w, wrong)
}

// expE4r: the E4 relaxed-WRN race re-explored with ExploreReduced
// under follower symmetry, cross-checked like E11r.
func expE4r(w io.Writer, _ sweep) error {
	fmt.Fprintln(w, "E4r  Reduced exploration of the relaxed-WRN race (followers interchangeable)")
	fmt.Fprintln(w, "workload            group  reduced  runs    hits    misses  executions  verdict")
	wrong := 0
	for _, procs := range []int{4, 5} {
		row := catalogue.E4{K: 3, Procs: procs}
		srep, err := modelcheck.ExploreReduced(row.Config, modelcheck.Reduced{Sym: symmetry(row.Sym())}, 1<<40, nil)
		if err != nil {
			return fmt.Errorf("E4 procs=%d reduced: %w", procs, err)
		}
		verdict := "match"
		// procs=5 is exactly what the reduction buys: the unreduced
		// count is out of interactive reach, so it is cross-checked at
		// procs=4 here (and once offline for procs=5 — see
		// TestReducedE4Procs5 in internal/modelcheck).
		if procs == 4 {
			oracle, err := modelcheck.Explore(row.Config, 1<<40, func(modelcheck.Execution) error { return nil })
			if err != nil {
				return fmt.Errorf("E4 procs=4 oracle: %w", err)
			}
			if srep.Executions != oracle {
				verdict = "** MISMATCH **"
				wrong++
			}
		}
		fmt.Fprintf(w, "k=3 procs=%-9d %-6d %-8d %-7d %-7d %-7d %-11d %s\n",
			procs, srep.Group, srep.ReducedConfigs, srep.Runs, srep.Hits, srep.Misses, srep.Executions, verdict)
	}
	return reducedTail(w, wrong)
}

// reducedTail ends an E11r or E4r table, failing on any mismatch.
func reducedTail(w io.Writer, wrong int) error {
	fmt.Fprintln(w)
	if wrong > 0 {
		return fmt.Errorf("%d reduced verdict(s) diverge from the exhaustive oracle", wrong)
	}
	return nil
}

// expE20: recoverable-consensus calibration. Each object's restart-aware
// 2-consensus protocol (durable proposal/decision registers around the
// racing object) is analyzed twice: once under the plain valency engine
// — the full-persistence model, where a recovering process resumes with
// every bit of its state, so verdicts coincide with the asynchronous
// ones of E11 — and once under an exhaustive amnesiac crash-restart
// sweep, where chaos.NewCrashRestart wipes the victim's volatile state
// and re-runs it from the top at every (victim, crashAt, window) point.
// Per Ovens 2024, the plain objects lose their consensus power to the
// amnesiac restart (the winner forgets it won, or a re-applied WRN step
// reads its rival's later write) while the recoverable implementations
// retain it; any row contradicting that calibration fails the table.
func expE20(w io.Writer, _ sweep) error {
	fmt.Fprintln(w, "E20 Recoverable consensus: amnesiac restarts strip plain objects of their power (Ovens 2024)")
	fmt.Fprintln(w, "    full-persist = plain valency analysis (recovery resumes with all state, as in E11)")
	fmt.Fprintln(w, "    amnesiac     = exhaustive valency under CrashRestart sweeps of victim x crashAt x window")
	fmt.Fprintln(w, "object             full-persist  amnesiac   sweeps  configs   executions  verdict")

	grid := catalogue.E20Grid()
	wrong := 0
	for _, r := range catalogue.E20() {
		full, err := modelcheck.AnalyzeValency(r.Config, 0)
		if err != nil {
			return fmt.Errorf("%s full-persistence: %w", r.Name, err)
		}
		configs, executions, disagreeing := full.Configs, full.Executions, 0
		for _, p := range grid {
			rep, err := modelcheck.AnalyzeValencyUnder(r.Config, p.Adversary, 0)
			if err != nil {
				return fmt.Errorf("%s amnesiac %v: %w", r.Name, p, err)
			}
			configs += rep.Configs
			executions += rep.Executions
			if !rep.Agreement {
				disagreeing++
			}
		}
		fullCol, amnesiacCol := verdictWord(full.Agreement), verdictWord(disagreeing == 0)
		verdict := "power retained"
		if !r.Agreement {
			verdict = "consensus power lost to the restart"
		}
		if full.Agreement != true || (disagreeing == 0) != r.Agreement {
			verdict += "  ** UNEXPECTED **"
			wrong++
		}
		fmt.Fprintf(w, "%-18s %-13s %-10s %-7d %-9d %-11d %s\n",
			r.Name, fullCol, amnesiacCol, len(grid), configs, executions, verdict)
	}
	fmt.Fprintln(w)
	if wrong > 0 {
		return fmt.Errorf("%d object(s) contradict the Ovens 2024 calibration", wrong)
	}
	return nil
}

// verdictWord renders an agreement bit as the E20 column word.
func verdictWord(agree bool) string {
	if agree {
		return "agree"
	}
	return "disagree"
}

// expE12: snapshot implementation linearizability and renaming validity.
func expE12(w io.Writer, sw sweep) error {
	fmt.Fprintln(w, "E12 Substrates: AADGMS snapshot from registers; (2k-1)-renaming from snapshots")
	fmt.Fprintln(w, "substrate   config        schedules  valid")
	spec := snapshot.Spec(3, "⊥")
	ok := 0
	for seed := sw.seed; seed < sw.seed+int64(sw.runs); seed++ {
		objects := map[string]sim.Object{}
		s := snapshot.NewImpl(objects, "R", 3, "⊥")
		progs := make([]sim.Program, 3)
		for i := 0; i < 3; i++ {
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
	fmt.Fprintf(w, "%-11s %-13s %-10d %d/%d\n", "snapshot", "3 writers", sw.runs, ok, sw.runs)
	if ok != sw.runs {
		fmt.Fprintln(w)
		return fmt.Errorf("%d/%d snapshot runs not linearizable", sw.runs-ok, sw.runs)
	}

	ids := []int{19, 3, 27, 8}
	task := tasks.Renaming{Names: 2*len(ids) - 1}
	ok = 0
	for seed := sw.seed; seed < sw.seed+int64(sw.runs); seed++ {
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
	fmt.Fprintf(w, "%-11s %-13s %-10d %d/%d\n\n", "renaming", "4 of 32", sw.runs, ok, sw.runs)
	if ok != sw.runs {
		return fmt.Errorf("%d/%d renaming runs invalid", sw.runs-ok, sw.runs)
	}
	return nil
}

// expE13: BG simulation — consistency and the crash-point sweep.
func expE13(w io.Writer, _ sweep) error {
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
	// Simulator 0 crashes after j steps; a crashed simulator blocks at
	// most one simulated process (BG's t-resilience).
	const sweep, bound = 60, 1
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
	fmt.Fprintf(w, "%-5d %-6d %-13d %d/%d %14d  %d\n\n", 2, len(inputs), sweep+1, done, sweep+1, maxBlocked, bound)
	if done != sweep+1 || maxBlocked > bound {
		return fmt.Errorf("survivor finished at %d/%d crash points with up to %d simulated process(es) blocked, bound %d", done, sweep+1, maxBlocked, bound)
	}
	return nil
}

// expE14: immediate snapshot — exhaustive property verification.
func expE14(w io.Writer, _ sweep) error {
	fmt.Fprintln(w, "E14 Immediate snapshot (BG floors): exhaustive property verification")
	fmt.Fprintln(w, "n   executions  violations")
	task := tasks.ImmediateSnapshot{}
	for n := 2; n <= 3; n++ {
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
			return fmt.Errorf("%d immediate-snapshot violations for n=%d", violations, n)
		}
	}
	fmt.Fprintln(w)
	return nil
}

// expE15: the universal construction — linearizable counter and helping.
func expE15(w io.Writer, sw sweep) error {
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
	for seed := sw.seed; seed < sw.seed+int64(sw.runs); seed++ {
		objects := map[string]sim.Object{}
		u := universal.New(objects, "U", 3, 16, spec)
		progs := make([]sim.Program, 3)
		for p := 0; p < 3; p++ {
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
	fmt.Fprintf(w, "%-29s %-10d %d/%d\n\n", "universal counter linearizes", sw.runs, ok, sw.runs)
	if ok != sw.runs {
		return fmt.Errorf("%d/%d universal-counter runs not linearizable", sw.runs-ok, sw.runs)
	}
	return nil
}

// expE16: the protocol complex — distinct IIS outcome patterns equal the
// chromatic-subdivision simplex counts.
func expE16(w io.Writer, _ sweep) error {
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
			return fmt.Errorf("n=%d rounds=%d produced %d outcome patterns, theory says %d", c.n, c.rounds, len(seen), c.want)
		}
	}
	fmt.Fprintln(w)
	return nil
}

// maxN is the largest system size of the E7, E8 and E17 tables.
const maxN = 12

// expE2: WRN's place between registers and 2-consensus.
func expE2(w io.Writer, _ sweep) error {
	fmt.Fprintln(w, "E2  WRN_k sits strictly between registers and 2-consensus")
	fmt.Fprintln(w, "k   equivalent-task        consensus-number  solves-(k,k-1)  registers-can  implements-2-consensus")
	wrong := 0
	for k := 3; k <= 8; k++ {
		eq := core.WRNEquivalent(k)
		cons, two := core.WRNConsensusNumber(k), core.Implements(eq.N, eq.K, 2, 1)
		fmt.Fprintf(w, "%-3d %-22v %-17d %-15v %-14v %v\n",
			k, eq, cons,
			true,  // Algorithm 2, verified exhaustively in E1
			false, // k-set consensus is unsolvable from registers (BG/HS/SZ)
			two)
		if cons != 1 || two {
			wrong++
		}
	}
	fmt.Fprintln(w)
	if wrong > 0 {
		return fmt.Errorf("%d WRN_k row(s) not strictly between registers and 2-consensus", wrong)
	}
	return nil
}

// expE7: the Theorem 41 implementability matrix.
func expE7(w io.Writer, _ sweep) error {
	fmt.Fprintln(w, "E7  Theorem 41: (n,k)-set consensus from (m,j)-set consensus and registers")
	for _, src := range []core.SetCons{{N: 3, K: 2}, {N: 4, K: 3}, {N: 5, K: 4}, {N: 6, K: 2}} {
		fmt.Fprintf(w, "source %v — rows n = 2..%d, columns k = 1..n-1 (y = implementable)\n", src, maxN)
		matrix := core.ImplementabilityMatrix(src, maxN)
		for i, row := range matrix {
			fmt.Fprintf(w, "  n=%-3d ", i+2)
			for _, ok := range row {
				if ok {
					fmt.Fprint(w, "y ")
				} else {
					fmt.Fprint(w, ". ")
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
	return nil
}

// expE8: the 1sWRN hierarchy (Corollary 42).
func expE8(w io.Writer, _ sweep) error {
	fmt.Fprintln(w, "E8  Corollary 42: the 1sWRN hierarchy (rows/cols k = 3..N; cell = row vs column)")
	levels := core.WRNHierarchyLevels(maxN)
	fmt.Fprint(w, "      ")
	for j := range levels {
		fmt.Fprintf(w, "k=%-3d ", 3+j)
	}
	fmt.Fprintln(w)
	unordered := 0
	for i, row := range levels {
		fmt.Fprintf(w, "k=%-3d ", 3+i)
		for j, o := range row {
			fmt.Fprintf(w, "%-5s ", symbol(o))
			if i == j && o != core.Equivalent || i != j && o != core.Stronger && o != core.Weaker {
				unordered++
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  (> = strictly stronger, < = strictly weaker, = = equivalent)")
	fmt.Fprintln(w)
	if unordered > 0 {
		return fmt.Errorf("%d cell(s) of the 1sWRN hierarchy not strictly ordered off the diagonal or equivalent on it", unordered)
	}
	return nil
}

func symbol(o core.Ordering) string {
	switch o {
	case core.Stronger:
		return ">"
	case core.Weaker:
		return "<"
	case core.Equivalent:
		return "="
	default:
		return "?"
	}
}

// expE10: the O(n,k) hierarchy of PODC'16 (reconstructed family). Every
// witness must separate — a non-separating row means the reconstructed
// hierarchy collapsed, so the experiment fails rather than printing a
// plausible table and exiting clean.
func expE10(w io.Writer, _ sweep) error {
	fmt.Fprintln(w, "E10 PODC'16: infinite strictly increasing hierarchies at every consensus level n >= 2")
	fmt.Fprintln(w, "    (reconstructed family O(n,k) = n-consensus ∧ (n·2^(k+1), 2)-set consensus)")
	fmt.Fprintln(w, "n   k   object                              cons-num  witness-procs  stronger-K  weaker-K  separated")
	unseparated := 0
	for n := 2; n <= 6; n++ {
		f := core.Family{N: n}
		for k := 1; k <= 4; k++ {
			member := f.At(k)
			wit := f.Separation(k)
			if !wit.Separated() {
				unseparated++
			}
			fmt.Fprintf(w, "%-3d %-3d %-35v %-9d %-14d %-11d %-9d %v\n",
				n, k, member, member.ConsensusNumber(), wit.Procs, wit.TaskK, wit.WeakerBest, wit.Separated())
		}
	}
	fmt.Fprintln(w)
	if unseparated > 0 {
		return fmt.Errorf("%d hierarchy witness(es) failed to separate", unseparated)
	}
	return nil
}

// expE17: the wealth, counted — distinct synchronization-power classes.
func expE17(w io.Writer, _ sweep) error {
	fmt.Fprintln(w, "E17 The wealth quantified: pairwise-inequivalent set-consensus powers")
	fmt.Fprintln(w, "maxN  objects  power-classes  at-consensus-number-1")
	merged := 0
	for _, cap := range []int{6, 10, maxN, 20} {
		classes := core.Classes(cap)
		byNum := core.CountByConsensusNumber(cap)
		objects := cap * (cap - 1) / 2
		fmt.Fprintf(w, "%-5d %-8d %-14d %d\n", cap, objects, len(classes), byNum[1])
		if len(classes) != objects {
			merged++
		}
	}
	fmt.Fprintln(w, "  (every object is its own class: consensus number collapses 'wealth' that task power keeps apart)")
	fmt.Fprintln(w)
	if merged > 0 {
		return fmt.Errorf("%d maxN row(s) where power classes do not equal objects", merged)
	}
	return nil
}

// expHasse: the covering relations of the sub-consensus landscape, up
// to n = 7: the diagram grows fast, and the text rendering stays
// readable.
func expHasse(w io.Writer, _ sweep) error {
	const cap = 7
	fmt.Fprintf(w, "Hasse diagram of the implementability order, objects with n <= %d\n", cap)
	edges := core.HasseDiagram(cap)
	for _, e := range edges {
		fmt.Fprintf(w, "  %v  >  %v\n", e.A, e.B)
	}
	fmt.Fprintf(w, "  (%d covering edges; every object is its own class)\n\n", len(edges))
	if classes, objects := len(core.Classes(cap)), cap*(cap-1)/2; classes != objects {
		return fmt.Errorf("%d power classes for %d objects with n <= %d", classes, objects, cap)
	}
	return nil
}

// expChaos sweeps seeds through the deterministic fault-injection
// harness (internal/chaos): per seed, simSweep runs E18's adversaries
// over Algorithm 5, and restartSweep E19's amnesiac crash-restart
// adversaries over the recoverable objects plus a negative control.
// Every run executes twice and must reproduce its trace and chaos
// report byte for byte: a chaos run is identified by its seed alone.
// Each seed writes into its own buffer, and the buffers print in seed
// order, so the output is identical for every worker count. Every
// failing seed is named, with the invocation that reproduces it.
func expChaos(w io.Writer, sw sweep) error {
	type slot struct {
		out bytes.Buffer
		err error
	}
	slots := make([]slot, sw.runs)
	_ = par.ForEach(sw.runs, sw.workers, func(i int) error {
		seed := sw.seed + int64(i)
		s := &slots[i]
		if err := simSweep(&s.out, seed, sw.verbose); err != nil {
			s.err = fmt.Errorf("sim seed %d: %w", seed, err)
		} else if err := restartSweep(&s.out, seed, sw.verbose); err != nil {
			s.err = fmt.Errorf("restart seed %d: %w", seed, err)
		}
		return nil
	})
	var failed []string
	for i := range slots {
		if _, err := w.Write(slots[i].out.Bytes()); err != nil {
			return err
		}
		if err := slots[i].err; err != nil {
			failed = append(failed, fmt.Sprintf("%v (reproduce: detobj run -seed %d -runs 1 chaos)", err, sw.seed+int64(i)))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d seeds failed: %s", len(failed), sw.runs, strings.Join(failed, "; "))
	}
	fmt.Fprintf(w, "chaos: %d seeds swept clean\n", sw.runs)
	return nil
}

// simRun executes one adversary stack over E5's Algorithm 5 row with
// replay verification and returns the result plus the rendered trace.
func simRun(seed int64, k int, mk func(r *chaos.Report) sim.Scheduler, r *chaos.Report) (*sim.Result, wrn.Impl, string, error) {
	cfg, impl := catalogue.E5{K: k}.Build()
	cfg.Scheduler = chaos.Instrument(mk(r), r)
	cfg.Seed = seed
	cfg.MaxSteps = 1 << 18
	cfg.VerifyReplay = true
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, impl, "", err
	}
	return res, impl, res.Trace.String(), nil
}

// simSweep runs every simulator adversary for one seed — crash during
// an operation, crash-recovery, step stall, the adaptive history-driven
// adversary and a composed stack — twice each with replay verification,
// demanding that survivors finish, that the crash history (pending
// operations included) linearizes, and byte-identical traces and
// reports across the two runs.
//
//detlint:hot
func simSweep(w io.Writer, seed int64, verbose bool) error {
	const k = 4
	victim := int(seed) % k
	stacks := []struct {
		name    string
		mk      func(r *chaos.Report) sim.Scheduler
		mayStop bool // the adversary crashes a process for good
	}{
		{"crash-during-op", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewCrashDuringOp(sim.NewRandom(seed), r, victim, int(seed)%4)
		}, true},
		{"crash-recovery", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewCrashRecovery(sim.NewRandom(seed), r, victim, 4, 30)
		}, false},
		{"stall", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewStall(sim.NewRandom(seed), r, victim, 2, 40)
		}, false},
		{"adaptive", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewAdaptive(seed, r)
		}, false},
		{"composed", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewStall(
				chaos.NewCrashDuringOp(chaos.NewAdaptive(seed, r), r, victim, 1),
				r, (victim+1)%k, 3, 20)
		}, true},
	}
	for _, s := range stacks {
		r1 := chaos.NewReport(seed)
		res, impl, trace1, err := simRun(seed, k, s.mk, r1)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		for i, st := range res.Status {
			if st == sim.StatusDone {
				continue
			}
			if s.mayStop && st == sim.StatusStopped && i == victim {
				continue
			}
			return fmt.Errorf("%s: process %d ended %v", s.name, i, st)
		}
		done, pending := linearize.OpsWithPending(res.Trace, impl.Name())
		if !linearize.Check(wrn.Spec(k), append(done, pending...)).OK {
			return fmt.Errorf("%s: chaos history not linearizable", s.name)
		}
		r2 := chaos.NewReport(seed)
		_, _, trace2, err := simRun(seed, k, s.mk, r2)
		if err != nil {
			return fmt.Errorf("%s (replay): %w", s.name, err)
		}
		if trace1 != trace2 {
			return fmt.Errorf("%s: trace not reproducible from seed", s.name)
		}
		if r1.String() != r2.String() {
			return fmt.Errorf("%s: report not reproducible from seed", s.name)
		}
		fmt.Fprintf(w, "sim seed %d %-16s steps=%d crashes=%d recoveries=%d maxstall=%d injections=%d\n",
			seed, s.name, res.Steps, r1.Crashes(), r1.Recoveries(), r1.MaxStall(), len(r1.Injections()))
		if verbose {
			fmt.Fprint(w, r1)
		}
	}
	return nil
}

// restartRun executes one amnesiac-restart adversary stack over the
// recoverable-WRN and recoverable-register workloads in a single
// simulator run with replay verification, returning the result, the
// core for exactly-once checks, and the rendered trace. Each of k
// processes performs one logical WRN operation (opid = process id)
// through the journaled recoverable WRN and one stage-persist-read pass
// through the recoverable register; Config.Recovery re-derives the
// WRN's volatile response cache from the durable journal.
func restartRun(seed int64, k int, mk func(r *chaos.Report) sim.Scheduler, r *chaos.Report) (*sim.Result, *recoverable.WRNCore, string, error) {
	objects := map[string]sim.Object{}
	wrh := recoverable.NewWRN(objects, "RW", k)
	objects["R"] = recoverable.NewRegister(nil)
	reg := recoverable.RegisterRef{Name: "R"}
	progs := make([]sim.Program, k)
	for i := 0; i < k; i++ {
		progs[i] = func(ctx *sim.Ctx) sim.Value {
			// Stage a per-incarnation value, persist it, then race the WRN.
			// A crash between write and persist must drop the staged value
			// without a trace in any later read.
			reg.Write(ctx, fmt.Sprintf("v%d.%d", i, ctx.Incarnation()))
			reg.Persist(ctx)
			// Bracket the logical WRN with BeginOp/EndOp: the adaptive
			// adversary arms its crashes on operation entry, and a crash
			// between the marks leaves a visibly wiped pending op.
			ctx.BeginOp("RW", "WRN", i, 100+i)
			out := wrh.WRN(ctx, i, i, 100+i)
			ctx.EndOp("RW", "WRN", out)
			return fmt.Sprintf("%v|%v", out, reg.Read(ctx))
		}
	}
	res, err := sim.Run(sim.Config{
		Objects:      objects,
		Programs:     progs,
		Scheduler:    chaos.Instrument(mk(r), r),
		Recovery:     wrh.Recovery(func(proc int) int { return proc }),
		Seed:         seed,
		MaxSteps:     1 << 18,
		VerifyReplay: true,
	})
	if err != nil {
		return nil, nil, "", err
	}
	return res, objects["RW.core"].(*recoverable.WRNCore), res.Trace.String(), nil
}

// checkRegisterSafety walks the trace and verifies the recoverable
// register's persistence contract: a value staged by an incarnation
// that crashed before persisting it (a ghost) must never surface as the
// durable value of any later persist or read. Staged values embed the
// incarnation, so every ghost is unique across the run.
func checkRegisterSafety(res *sim.Result) error {
	pending := map[int]sim.Value{} // proc -> staged, unpersisted value
	ghosts := map[sim.Value]bool{} // wiped staged values
	for _, e := range res.Trace.Events {
		switch {
		case e.Kind == sim.EventStep && e.Object == "R" && e.Op == "write":
			pending[e.Proc] = e.Args[0]
		case e.Kind == sim.EventStep && e.Object == "R" && e.Op == "persist":
			delete(pending, e.Proc)
			if ghosts[e.Out] {
				return fmt.Errorf("persist by %d surfaced ghost value %v", e.Proc, e.Out)
			}
		case e.Kind == sim.EventStep && e.Object == "R" && e.Op == "read":
			if ghosts[e.Out] {
				return fmt.Errorf("read by %d observed ghost value %v", e.Proc, e.Out)
			}
		case e.Kind == sim.EventCrash:
			if v, ok := pending[e.Proc]; ok {
				ghosts[v] = true
				delete(pending, e.Proc)
			}
		}
	}
	return nil
}

// restartControl runs the plain Algorithm 5 WRN (no journal, no recovery
// step) under a deterministic crash-restart sweep and counts the crash
// points at which the amnesiac restart visibly breaks it: the victim's
// re-run either mutates the shared arrays again (exactly-once violated)
// or trips a bounded-use guard and hangs. The recoverable workload
// survives the same adversary family, so this control is what pins the
// breakage on the object, not on the sweep being too gentle.
func restartControl(k int) (broken, points int, err error) {
	const crashPoints = 9
	for crashAt := 0; crashAt < crashPoints; crashAt++ {
		objects := map[string]sim.Object{}
		impl := wrn.NewImpl(objects, "LW", k)
		progs := make([]sim.Program, k)
		for i := 0; i < k; i++ {
			progs[i] = func(ctx *sim.Ctx) sim.Value {
				return impl.WRN(ctx, i, 100+i)
			}
		}
		r := chaos.NewReport(int64(crashAt))
		res, runErr := sim.Run(sim.Config{
			Objects:      objects,
			Programs:     progs,
			Scheduler:    chaos.NewCrashRestart(sim.NewRoundRobin(), r, 0, crashAt, 0),
			MaxSteps:     1 << 16,
			VerifyReplay: true,
		})
		if runErr != nil {
			return 0, 0, fmt.Errorf("control crashAt=%d: %w", crashAt, runErr)
		}
		updates := 0
		for _, e := range res.Trace.Events {
			if e.Kind == sim.EventStep && e.Proc == 0 && e.Op == "update" {
				updates++
			}
		}
		hung := false
		for _, st := range res.Status {
			if st == sim.StatusHung {
				hung = true
			}
		}
		// One WRN pass updates R once and O once; a third update means the
		// restarted incarnation re-applied durable work.
		if updates > 2 || hung {
			broken++
		}
	}
	return broken, crashPoints, nil
}

// restartSweep runs every amnesiac crash-restart adversary for one seed
// (E19), twice each, demanding byte-identical traces and reports,
// termination of every incarnation chain, matched crash/restart
// accounting, recoverable-WRN exactly-once semantics and recoverable-
// register persistence safety — then checks the plain-WRN negative
// control still breaks under the same adversary family.
//
//detlint:hot
func restartSweep(w io.Writer, seed int64, verbose bool) error {
	const k = 3
	victim := int(seed) % k
	stacks := []struct {
		name string
		mk   func(r *chaos.Report) sim.Scheduler
		// wantCrashes is the stack's exact crash budget, or -1 when only
		// the upper bound maxCrashes applies (the adaptive adversary's
		// coin decides the exact count).
		wantCrashes int
		maxCrashes  int
	}{
		{"crash-restart", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewCrashRestart(sim.NewRandom(seed), r, victim, 2+int(seed)%3, 3)
		}, 1, 1},
		{"repeated-restart", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewRepeatedCrashRestart(sim.NewRandom(seed), r, victim, 2, 2, 3)
		}, 3, 3},
		{"adaptive-restart", func(r *chaos.Report) sim.Scheduler {
			return chaos.NewAdaptiveRestart(sim.NewRandom(seed), r, seed, 4)
		}, -1, 4},
	}
	for _, s := range stacks {
		r1 := chaos.NewReport(seed)
		res, core, trace1, err := restartRun(seed, k, s.mk, r1)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		for i, st := range res.Status {
			if st != sim.StatusDone {
				return fmt.Errorf("%s: process %d ended %v, want StatusDone after restarts", s.name, i, st)
			}
		}
		if r1.Recoveries() != 0 {
			return fmt.Errorf("%s: %d recoveries recorded; amnesiac restarts must not count as full-persistence recoveries", s.name, r1.Recoveries())
		}
		if r1.Restarts() != r1.Crashes() {
			return fmt.Errorf("%s: %d crashes but %d restarts; every crash must be matched by a restart", s.name, r1.Crashes(), r1.Restarts())
		}
		if s.wantCrashes >= 0 && r1.Crashes() != s.wantCrashes {
			return fmt.Errorf("%s: %d crashes, want exactly %d", s.name, r1.Crashes(), s.wantCrashes)
		}
		if r1.Crashes() > s.maxCrashes {
			return fmt.Errorf("%s: %d crashes exceed the budget %d", s.name, r1.Crashes(), s.maxCrashes)
		}
		for opid := 0; opid < k; opid++ {
			if n := core.ApplyCount(opid); n != 1 {
				return fmt.Errorf("%s: WRN op %d mutated the durable cells %d times, want exactly once", s.name, opid, n)
			}
		}
		if err := checkRegisterSafety(res); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		r2 := chaos.NewReport(seed)
		_, _, trace2, err := restartRun(seed, k, s.mk, r2)
		if err != nil {
			return fmt.Errorf("%s (replay): %w", s.name, err)
		}
		if trace1 != trace2 {
			return fmt.Errorf("%s: trace not reproducible from seed", s.name)
		}
		if r1.String() != r2.String() {
			return fmt.Errorf("%s: report not reproducible from seed", s.name)
		}
		fmt.Fprintf(w, "restart seed %d %-17s steps=%d crashes=%d restarts=%d recoveries=%d injections=%d\n",
			seed, s.name, res.Steps, r1.Crashes(), r1.Restarts(), r1.Recoveries(), len(r1.Injections()))
		if verbose {
			fmt.Fprint(w, r1)
		}
	}
	broken, points, err := restartControl(k)
	if err != nil {
		return fmt.Errorf("negative control: %w", err)
	}
	if broken == 0 {
		return fmt.Errorf("negative control: plain Algorithm 5 WRN survived all %d crash points; the restart adversary lost its teeth", points)
	}
	fmt.Fprintf(w, "restart seed %d control: plain WRN broken at %d/%d crash points\n", seed, broken, points)
	return nil
}
