package main

// workloads.go builds the four fixed verification jobs the benchmark
// times. A job is a list of units; a repetition runs every unit once, in
// order, from one goroutine, each unit starting only after the previous
// one's verdict has been checked (a closed loop with one client). Every
// unit checks its verdict, and the counts the paper or the object
// semantics fix, and fails when either contradicts them. Counts that a
// valid optimisation may change (simulator runs, transposition-table hits
// and misses) are reported by the traced run but never pinned.
//
// The job is a pure function of the workload, its sizes and the seed:
// sampled takes its schedule seeds from it, the engine workloads take
// their proposal values from it, and no verdict or pinned count depends
// on it.

import (
	"fmt"
	"strings"

	"detobj/internal/chaos"
	"detobj/internal/consensus"
	"detobj/internal/linearize"
	"detobj/internal/modelcheck"
	"detobj/internal/recoverable"
	"detobj/internal/registers"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/tasks"
	"detobj/internal/wrn"
)

var workloads = []string{"sampled", "exhaustive", "reduced", "lemma38"}

// sizes fixes how much work one repetition does. full is the benchmark;
// the tests run every workload at a tiny size.
type sizes struct {
	e1Runs, e5Runs, e19Runs int   // sampled: seeded runs per experiment
	e4Procs                 int   // exhaustive: E4 contenders under Explore
	e1K                     int   // exhaustive: Algorithm 2 processes under Explore
	e20CrashAts             []int // exhaustive: E20 crash points, per victim
	reducedProcs            []int // reduced: E4 contenders under ExploreReduced
	wrnMaxK                 int   // lemma38: largest WRN_k row
	passes                  int   // lemma38: passes over the rows
}

var full = sizes{
	e1Runs: 4800, e5Runs: 2400, e19Runs: 2400,
	e4Procs: 4, e1K: 7, e20CrashAts: []int{0, 1, 2, 3, 4},
	reducedProcs: []int{6, 7},
	wrnMaxK:      8, passes: 2,
}

// unit is one checked piece of a job: a seeded run with its check, or an
// engine call with its pinned verdict. run returns a digest of the verdict
// and the reconstructed counts, so that every repetition, traced or not,
// can be checked to reach the same ones, and an error when either
// contradicts the paper.
type unit struct {
	name string
	run  func(tr *tracer) (digest, error)
}

// buildJob returns the units of one repetition of the named workload.
func buildJob(workload string, seed int64, sz sizes) ([]unit, error) {
	switch workload {
	case "sampled":
		return sampledJob(seed, sz), nil
	case "exhaustive":
		return exhaustiveJob(seed, sz), nil
	case "reduced":
		return reducedJob(seed, sz), nil
	case "lemma38":
		return lemma38Job(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
}

// Engine-report tallies, recorded with tracer.count.
const (
	countExecutions      = "mc.executions"
	countConfigs         = "mc.configs"
	countReducedConfigs  = "mc.reduced_configs"
	countRepresentatives = "mc.representatives"
	countHits            = "mc.hits"
	countMisses          = "mc.misses"
	countStates          = "mc.states"
	countPairs           = "mc.pairs"
)

// digest folds verdicts and counts into 64 bits (FNV-1a).
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d digest) int(n int) digest {
	for i := 0; i < 8; i++ {
		d ^= digest(byte(n >> (8 * i)))
		d *= 1099511628211
	}
	return d
}

func (d digest) str(s string) digest {
	for i := 0; i < len(s); i++ {
		d ^= digest(s[i])
		d *= 1099511628211
	}
	return d.int(len(s))
}

func (d digest) bool(b bool) digest {
	if b {
		return d.int(1)
	}
	return d.int(0)
}

func (d digest) value(v sim.Value) digest {
	switch x := v.(type) {
	case int:
		return d.int(x)
	case string:
		return d.str(x)
	case nil:
		return d.int(-1)
	}
	return d.str(fmt.Sprint(v))
}

// proposals are the seed-derived values of the engine workloads: distinct
// ints, never nil or ⊥.
func proposals(seed int64, n int) []sim.Value {
	base := int(seed%1000) * 1000
	vs := make([]sim.Value, n)
	for i := range vs {
		vs[i] = base + 10*(i+1)
	}
	return vs
}

func inputsOf(vs []sim.Value) map[int]sim.Value {
	in := make(map[int]sim.Value, len(vs))
	for i, v := range vs {
		in[i] = v
	}
	return in
}

// sampledJob: seeded random-schedule runs with their checks, as cmd/wrnsim
// and cmd/chaos run them, with trace recording on. Run r of each
// experiment uses schedule seed seed+r.
func sampledJob(seed int64, sz sizes) []unit {
	var units []unit
	vs := make([]sim.Value, 8)
	for i := range vs {
		vs[i] = i * 10
	}
	inputs := inputsOf(vs)
	for r := 0; r < sz.e1Runs; r++ {
		units = append(units, e1Run(seed+int64(r), vs, inputs))
	}
	spec := wrn.Spec(5)
	for r := 0; r < sz.e5Runs; r++ {
		units = append(units, e5Run(seed+int64(r), spec))
	}
	for r := 0; r < sz.e19Runs; r++ {
		units = append(units, e19Run(seed+int64(r), r%3))
	}
	return units
}

// e1Run is E1: Algorithm 2 for len(vs) processes proposing vs under one
// random schedule, judged by the (k−1)-set consensus checker.
func e1Run(s int64, vs []sim.Value, inputs map[int]sim.Value) unit {
	task := tasks.SetConsensus{K: len(vs) - 1}
	return unit{name: "E1 Alg2 k=8", run: func(tr *tracer) (digest, error) {
		objects := map[string]sim.Object{}
		progs := setconsensus.NewAlg2(objects, "W", vs)
		res, err := tr.run(sim.Config{Objects: objects, Programs: progs, Scheduler: sim.NewRandom(s)})
		if err != nil {
			return 0, fmt.Errorf("seed %d: %w", s, err)
		}
		t0 := tr.clock()
		verr := task.Check(tasks.OutcomeFromResult(res, inputs))
		tr.add(layerTasks, t0, 0)
		if verr != nil {
			return 0, fmt.Errorf("seed %d: %w", s, verr)
		}
		if !res.AllDone() {
			return 0, fmt.Errorf("seed %d: not every process decided", s)
		}
		d := newDigest().int(res.Steps)
		for _, v := range res.Outputs {
			d = d.value(v)
		}
		return d, nil
	}}
}

// e5Run is E5: Algorithm 5's 1sWRN_5 under one random schedule, judged
// linearizable against the sequential specification.
func e5Run(s int64, spec linearize.Spec) unit {
	const k = 5
	return unit{name: "E5 Alg5 k=5", run: func(tr *tracer) (digest, error) {
		objects := map[string]sim.Object{}
		impl := wrn.NewImpl(objects, "LW", k)
		progs := make([]sim.Program, k)
		for i := range progs {
			progs[i] = func(ctx *sim.Ctx) sim.Value { return impl.TracedWRN(ctx, i, 100+i) }
		}
		res, err := tr.run(sim.Config{Objects: objects, Programs: progs,
			Scheduler: sim.NewRandom(s), Seed: s, MaxSteps: 1 << 18})
		if err != nil {
			return 0, fmt.Errorf("seed %d: %w", s, err)
		}
		t0 := tr.clock()
		ops := linearize.Ops(res.Trace, impl.Name())
		lin := linearize.Check(spec, ops).OK
		tr.add(layerLin, t0, int64(len(ops)))
		if !lin {
			return 0, fmt.Errorf("seed %d: history not linearizable", s)
		}
		if !res.AllDone() {
			return 0, fmt.Errorf("seed %d: not every process finished", s)
		}
		d := newDigest().int(res.Steps)
		for _, v := range res.Outputs {
			d = d.value(v)
		}
		return d, nil
	}}
}

// e19Stacks are E19's amnesiac-restart adversaries, as cmd/chaos builds
// them; runs rotate through them. exact is the stack's exact crash count,
// or -1 when only the budget max applies.
var e19Stacks = []struct {
	name       string
	mk         func(s int64, victim int, r *chaos.Report) sim.Scheduler
	exact, max int
}{
	{"E19 crash-restart", func(s int64, victim int, r *chaos.Report) sim.Scheduler {
		return chaos.NewCrashRestart(sim.NewRandom(s), r, victim, 2+int(s%3), 3)
	}, 1, 1},
	{"E19 repeated-restart", func(s int64, victim int, r *chaos.Report) sim.Scheduler {
		return chaos.NewRepeatedCrashRestart(sim.NewRandom(s), r, victim, 2, 2, 3)
	}, 3, 3},
	{"E19 adaptive-restart", func(s int64, victim int, r *chaos.Report) sim.Scheduler {
		return chaos.NewAdaptiveRestart(sim.NewRandom(s), r, s, 4)
	}, -1, 4},
}

// e19Run is E19: the recoverable WRN_3 and register under one amnesiac
// restart stack with replay verification, checking termination, the
// restart ledger and exactly-once application.
func e19Run(s int64, stack int) unit {
	const k = 3
	st := e19Stacks[stack]
	victim := int((s%k + k) % k)
	return unit{name: st.name, run: func(tr *tracer) (digest, error) {
		objects := map[string]sim.Object{}
		wrh := recoverable.NewWRN(objects, "RW", k)
		objects["R"] = recoverable.NewRegister(nil)
		reg := recoverable.RegisterRef{Name: "R"}
		progs := make([]sim.Program, k)
		for i := range progs {
			progs[i] = func(ctx *sim.Ctx) sim.Value {
				reg.Write(ctx, fmt.Sprintf("v%d.%d", i, ctx.Incarnation()))
				reg.Persist(ctx)
				ctx.BeginOp("RW", "WRN", i, 100+i)
				out := wrh.WRN(ctx, i, i, 100+i)
				ctx.EndOp("RW", "WRN", out)
				return fmt.Sprintf("%v|%v", out, reg.Read(ctx))
			}
		}
		rep := chaos.NewReport(s)
		res, err := tr.run(sim.Config{
			Objects:      objects,
			Programs:     progs,
			Scheduler:    chaos.Instrument(st.mk(s, victim, rep), rep),
			Recovery:     wrh.Recovery(func(proc int) int { return proc }),
			Seed:         s,
			MaxSteps:     1 << 18,
			VerifyReplay: true,
		})
		if err != nil {
			return 0, fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.AllDone() {
			return 0, fmt.Errorf("seed %d: an incarnation chain did not finish", s)
		}
		crashes := rep.Crashes()
		switch {
		case rep.Recoveries() != 0:
			return 0, fmt.Errorf("seed %d: %d full-persistence recoveries recorded for amnesiac restarts", s, rep.Recoveries())
		case rep.Restarts() != crashes:
			return 0, fmt.Errorf("seed %d: %d crashes but %d restarts", s, crashes, rep.Restarts())
		case st.exact >= 0 && crashes != st.exact, crashes > st.max:
			return 0, fmt.Errorf("seed %d: %d crashes outside the stack's budget", s, crashes)
		}
		for op := 0; op < k; op++ {
			if n := wrh.Core().ApplyCount(op); n != 1 {
				return 0, fmt.Errorf("seed %d: WRN op %d applied %d times, want exactly once", s, op, n)
			}
		}
		d := newDigest().int(res.Steps).int(crashes)
		for _, v := range res.Outputs {
			d = d.value(v)
		}
		return d, nil
	}}
}

// e4Executions and e4Configs are the unreduced execution and
// configuration counts of the E4 relaxed-WRN race with k=3, by number of
// contenders.
var (
	e4Executions = map[int]int{3: 476, 4: 16848, 5: 910800, 6: 70106400, 7: 7287084000}
	e4Configs    = map[int]int{3: 1448, 4: 49729, 5: 2638044, 6: 200592149, 7: 20675933104}
)

// e4Factory is E4: procs contenders racing on a relaxed WRN_3, process 0
// alone on index 1.
func e4Factory(seed int64, procs int) modelcheck.Factory {
	vs := make([]string, procs)
	for p := range vs {
		vs[p] = fmt.Sprintf("p%d.%d", p, seed)
	}
	return func() sim.Config {
		objects := map[string]sim.Object{}
		rlx, _ := wrn.NewRelaxed(objects, "W", 3)
		progs := make([]sim.Program, procs)
		for p := range progs {
			i, v := 0, vs[p]
			if p == 0 {
				i = 1
			}
			progs[p] = func(ctx *sim.Ctx) sim.Value { return rlx.RlxWRN(ctx, i, v) }
		}
		return sim.Config{Objects: objects, Programs: progs}
	}
}

func exhaustiveJob(seed int64, sz sizes) []unit {
	units := []unit{e4Explore(seed, sz.e4Procs), e1Explore(seed, sz.e1K)}
	for _, row := range e11Rows(seed) {
		units = append(units, e11Valency(row))
	}
	for _, row := range e20Rows {
		units = append(units, e20Sweep(seed, row, sz.e20CrashAts))
	}
	return units
}

// e4Explore enumerates every E4 execution; none may hang a contender,
// which is how an illegal second use of the one-shot object shows.
func e4Explore(seed int64, procs int) unit {
	f := e4Factory(seed, procs)
	want := e4Executions[procs]
	return unit{name: fmt.Sprintf("E4 k=3 procs=%d", procs), run: func(tr *tracer) (digest, error) {
		illegal := 0
		visit := tr.visit(func(e modelcheck.Execution) error {
			if !e.Result.AllDone() {
				illegal++
			}
			return nil
		})
		sp, t0 := tr.beginEngine("modelcheck.Explore")
		n, err := modelcheck.Explore(tr.factory(f), 1<<40, visit)
		tr.endEngine(sp, t0)
		if err != nil {
			return 0, err
		}
		tr.count(countExecutions, int64(n))
		if n != want {
			return 0, fmt.Errorf("%d executions, want %d", n, want)
		}
		if illegal > 0 {
			return 0, fmt.Errorf("%d executions used the one-shot object illegally", illegal)
		}
		return newDigest().int(n), nil
	}}
}

// e1Explore enumerates every execution of Algorithm 2 for k processes,
// which is all k! orders of their single steps, and checks (k−1)-set
// consensus in each.
func e1Explore(seed int64, k int) unit {
	vs := proposals(seed, k)
	inputs, task := inputsOf(vs), tasks.SetConsensus{K: k - 1}
	want := 1
	for i := 2; i <= k; i++ {
		want *= i
	}
	f := func() sim.Config {
		objects := map[string]sim.Object{}
		return sim.Config{Objects: objects, Programs: setconsensus.NewAlg2(objects, "W", vs)}
	}
	return unit{name: fmt.Sprintf("E1 Alg2 k=%d", k), run: func(tr *tracer) (digest, error) {
		violations := 0
		visit := tr.visit(func(e modelcheck.Execution) error {
			t0 := tr.clock()
			err := task.Check(tasks.OutcomeFromResult(e.Result, inputs))
			tr.add(layerTasks, t0, 0)
			if err != nil || !e.Result.AllDone() {
				violations++
			}
			return nil
		})
		sp, t0 := tr.beginEngine("modelcheck.Explore")
		n, err := modelcheck.Explore(tr.factory(f), 0, visit)
		tr.endEngine(sp, t0)
		if err != nil {
			return 0, err
		}
		tr.count(countExecutions, int64(n))
		if n != want {
			return 0, fmt.Errorf("%d executions, want %d", n, want)
		}
		if violations > 0 {
			return 0, fmt.Errorf("%d executions violate (%d-1)-set consensus", violations, k)
		}
		return newDigest().int(n), nil
	}}
}

// e11Row is one protocol of E11 with its pinned valency counts and the
// proposer symmetry the reduced engine quotients it by.
type e11Row struct {
	name                string
	f                   modelcheck.Factory
	sym                 modelcheck.Symmetry
	configs, executions int
	agreement           bool
}

func twoProcFactory(build func(map[string]sim.Object, string, sim.Value, sim.Value) []sim.Program, obj string, vs []sim.Value) modelcheck.Factory {
	return func() sim.Config {
		objects := map[string]sim.Object{}
		return sim.Config{Objects: objects, Programs: build(objects, obj, vs[0], vs[1])}
	}
}

// e11Rows are E11's protocols: every 2-process protocol agrees, the naive
// 3-process one on WRN_2 must disagree.
func e11Rows(seed int64) []e11Row {
	vs := proposals(seed, 3)
	sym2 := modelcheck.SymmetricClasses(2, []int{0, 1})
	sym2.Rename = modelcheck.RenameByInputs(vs[:2])
	naiveSym := modelcheck.SymmetricClasses(3, []int{0, 2})
	naiveSym.Rename = modelcheck.RenameByInputs(vs)
	return []e11Row{
		{"E11 2-cons from SWAP", twoProcFactory(consensus.TwoConsFromSwap, "C", vs), sym2, 25, 6, true},
		{"E11 2-cons from WRN_2", twoProcFactory(consensus.TwoConsFromWRN2, "W", vs), sym2, 5, 2, true},
		{"E11 2-cons from TAS", twoProcFactory(consensus.TwoConsFromTAS, "T", vs), sym2, 25, 6, true},
		{"E11 2-cons from queue", twoProcFactory(consensus.TwoConsFromQueue, "Q", vs), sym2, 25, 6, true},
		{"E11 2-cons from f&add", twoProcFactory(consensus.TwoConsFromFetchAdd, "F", vs), sym2, 25, 6, true},
		{"E11 3 procs on WRN_2", func() sim.Config {
			objects := map[string]sim.Object{}
			progs := consensus.ThreeFromWRN2Naive(objects, "W", [3]sim.Value{vs[0], vs[1], vs[2]})
			return sim.Config{Objects: objects, Programs: progs}
		}, naiveSym, 16, 6, false},
	}
}

// checkValency compares a valency report with the row's pins.
func checkValency(row e11Row, rep *modelcheck.ValencyReport) (digest, error) {
	if rep.Configs != row.configs || rep.Executions != row.executions || rep.Agreement != row.agreement {
		return 0, fmt.Errorf("configs=%d executions=%d agreement=%v, want %d %d %v",
			rep.Configs, rep.Executions, rep.Agreement, row.configs, row.executions, row.agreement)
	}
	return newDigest().int(rep.Configs).int(rep.Executions).bool(rep.Agreement), nil
}

func e11Valency(row e11Row) unit {
	return unit{name: row.name, run: func(tr *tracer) (digest, error) {
		sp, t0 := tr.beginEngine("modelcheck.AnalyzeValency")
		rep, err := modelcheck.AnalyzeValency(tr.factory(row.f), 0)
		tr.endEngine(sp, t0)
		if err != nil {
			return 0, err
		}
		tr.count(countExecutions, int64(rep.Executions))
		tr.count(countConfigs, int64(rep.Configs))
		return checkValency(row, rep)
	}}
}

// e20Row is one object of E20: the plain ones lose consensus power to an
// amnesiac restart, the recoverable ones keep it (Ovens 2024).
type e20Row struct {
	name        string
	build       func(map[string]sim.Object, string, sim.Value, sim.Value) []sim.Program
	recoverable bool
}

var e20Rows = []e20Row{
	{"E20 plain TAS", recoverable.TwoConsFromPlainTAS, false},
	{"E20 recoverable TAS", recoverable.TwoConsFromRecTAS, true},
	{"E20 plain WRN_2", recoverable.TwoConsFromPlainWRN2, false},
	{"E20 recoverable WRN_2", recoverable.TwoConsFromRecWRN2, true},
}

// e20Sweep is one E20 row: the full-persistence valency analysis must
// agree, then the amnesiac CrashRestart sweep over victims 0 and 1, the
// given crash points and a restart window of 3 must disagree somewhere for
// a plain object and nowhere for a recoverable one.
func e20Sweep(seed int64, row e20Row, crashAts []int) unit {
	const window = 3
	f := twoProcFactory(row.build, "X", proposals(seed, 2))
	return unit{name: row.name, run: func(tr *tracer) (digest, error) {
		sp, t0 := tr.beginEngine("modelcheck.AnalyzeValency")
		base, err := modelcheck.AnalyzeValency(tr.factory(f), 0)
		tr.endEngine(sp, t0)
		if err != nil {
			return 0, err
		}
		if !base.Agreement {
			return 0, fmt.Errorf("full-persistence analysis disagrees")
		}
		configs, executions, disagreeing := base.Configs, base.Executions, 0
		for _, victim := range []int{0, 1} {
			for _, crashAt := range crashAts {
				wrap := func(inner sim.Scheduler) sim.Scheduler {
					return wrapScheduler(tr, chaos.NewCrashRestart(inner, chaos.NewReport(0), victim, crashAt, window))
				}
				sp, t0 := tr.beginEngine("modelcheck.AnalyzeValencyUnder")
				rep, err := modelcheck.AnalyzeValencyUnder(tr.factory(f), wrap, 0)
				tr.endEngine(sp, t0)
				if err != nil {
					return 0, fmt.Errorf("victim=%d crashAt=%d: %w", victim, crashAt, err)
				}
				configs += rep.Configs
				executions += rep.Executions
				if !rep.Agreement {
					disagreeing++
				}
			}
		}
		tr.count(countExecutions, int64(executions))
		tr.count(countConfigs, int64(configs))
		if (disagreeing == 0) != row.recoverable {
			return 0, fmt.Errorf("%d of %d sweep points disagree, contradicting the calibration", disagreeing, 2*len(crashAts))
		}
		return newDigest().int(configs).int(executions).int(disagreeing), nil
	}}
}

func reducedJob(seed int64, sz sizes) []unit {
	var units []unit
	for _, procs := range sz.reducedProcs {
		units = append(units, e4Reduced(seed, procs))
	}
	for _, row := range e11Rows(seed) {
		units = append(units, e11Reduced(row))
	}
	return units
}

// countReduction records a reduced engine's accounting.
func countReduction(tr *tracer, s *modelcheck.SymmetryReport) {
	tr.count(countReducedConfigs, int64(s.ReducedConfigs))
	tr.count(countRepresentatives, int64(s.Representatives))
	tr.count(countHits, int64(s.Hits))
	tr.count(countMisses, int64(s.Misses))
}

// e4Reduced explores E4 under follower symmetry; the reconstructed
// execution and configuration counts must equal the unreduced ones.
func e4Reduced(seed int64, procs int) unit {
	f := e4Factory(seed, procs)
	followers := make([]int, procs-1)
	for i := range followers {
		followers[i] = i + 1
	}
	red := modelcheck.Reduced{Sym: modelcheck.SymmetricClasses(procs, followers)}
	return unit{name: fmt.Sprintf("E4 k=3 procs=%d reduced", procs), run: func(tr *tracer) (digest, error) {
		sp, t0 := tr.beginEngine("modelcheck.ExploreReduced")
		s, err := modelcheck.ExploreReduced(tr.factory(f), red, 1<<40, nil)
		tr.endEngine(sp, t0)
		if err != nil {
			return 0, err
		}
		tr.count(countExecutions, int64(s.Executions))
		tr.count(countConfigs, int64(s.Configs))
		countReduction(tr, s)
		if s.Executions != e4Executions[procs] || s.Configs != e4Configs[procs] {
			return 0, fmt.Errorf("executions=%d configs=%d, want %d %d",
				s.Executions, s.Configs, e4Executions[procs], e4Configs[procs])
		}
		return newDigest().int(s.Executions).int(s.Configs), nil
	}}
}

func e11Reduced(row e11Row) unit {
	return unit{name: row.name + " reduced", run: func(tr *tracer) (digest, error) {
		sp, t0 := tr.beginEngine("modelcheck.AnalyzeValencyReduced")
		rep, s, err := modelcheck.AnalyzeValencyReduced(tr.factory(row.f), modelcheck.Reduced{Sym: row.sym}, 0)
		tr.endEngine(sp, t0)
		if err != nil {
			return 0, err
		}
		tr.count(countExecutions, int64(rep.Executions))
		tr.count(countConfigs, int64(rep.Configs))
		countReduction(tr, s)
		return checkValency(row, rep)
	}}
}

// e6Row is one object of E6 with its pinned Lemma 38 outcome: the
// reachable states, the (state, op, op) triples checked, and whether it
// passes (consensus number 1) or exposes a distinguishing pair.
type e6Row struct {
	name          string
	init          func() sim.Object
	alpha         []sim.Invocation
	states, pairs int
	pass          bool
}

// e6Rows are E6's zoo plus WRN_k up to maxK. WRN_k over a two-value
// domain has 3^k states and (2k)^2 operation pairs per state.
func e6Rows(seed int64, maxK int) []e6Row {
	p, q := fmt.Sprintf("p.%d", seed), fmt.Sprintf("q.%d", seed)
	wrnAlpha := func(k int) []sim.Invocation {
		var ops []sim.Invocation
		for i := 0; i < k; i++ {
			ops = append(ops, sim.Invocation{Op: "WRN", Args: []sim.Value{i, p}},
				sim.Invocation{Op: "WRN", Args: []sim.Value{i, q}})
		}
		return ops
	}
	rows := []e6Row{{"E6 register", func() sim.Object { return registers.New("init") },
		[]sim.Invocation{{Op: "read"}, {Op: "write", Args: []sim.Value{p}}, {Op: "write", Args: []sim.Value{q}}}, 3, 27, true}}
	for k := 3; k <= maxK; k++ {
		states := 1
		for i := 0; i < k; i++ {
			states *= 3
		}
		rows = append(rows, e6Row{fmt.Sprintf("E6 WRN_%d", k), func() sim.Object { return wrn.New(k) },
			wrnAlpha(k), states, states * 4 * k * k, true})
	}
	return append(rows,
		e6Row{"E6 1sWRN_3", func() sim.Object { return wrn.NewOneShot(3) }, wrnAlpha(3), 27, 972, true},
		e6Row{"E6 WRN_2=SWAP", func() sim.Object { return wrn.New(2) }, wrnAlpha(2), 9, 144, false},
		e6Row{"E6 swap", func() sim.Object { return consensus.NewSwap(nil) },
			[]sim.Invocation{{Op: "swap", Args: []sim.Value{p}}, {Op: "swap", Args: []sim.Value{q}}}, 3, 12, false},
		e6Row{"E6 test-and-set", func() sim.Object { return consensus.NewTestAndSet() },
			[]sim.Invocation{{Op: "tas"}}, 2, 2, false},
		e6Row{"E6 consensus-cell", func() sim.Object { return consensus.NewCell(4) },
			[]sim.Invocation{{Op: "propose", Args: []sim.Value{p}}, {Op: "propose", Args: []sim.Value{q}}}, 9, 36, false},
	)
}

func lemma38Job(seed int64, sz sizes) []unit {
	var units []unit
	rows := e6Rows(seed, sz.wrnMaxK)
	for pass := 0; pass < sz.passes; pass++ {
		for _, row := range rows {
			units = append(units, e6Check(row))
		}
	}
	return units
}

// e6Check runs the Lemma 38 case analysis on a fresh copy of the row's
// object.
func e6Check(row e6Row) unit {
	return unit{name: row.name, run: func(tr *tracer) (digest, error) {
		init, ok := wrapObject(tr, row.init()).(modelcheck.Finite)
		if !ok {
			return 0, fmt.Errorf("object is not modelcheck.Finite")
		}
		sp, t0 := tr.beginEngine("modelcheck.CheckIndistinguishability")
		rep, err := modelcheck.CheckIndistinguishability(init, row.alpha, 1<<15)
		tr.endEngine(sp, t0)
		if err != nil {
			return 0, err
		}
		tr.count(countStates, int64(rep.States))
		tr.count(countPairs, int64(rep.Pairs))
		if rep.States != row.states || rep.Pairs != row.pairs || rep.Passed() != row.pass {
			return 0, fmt.Errorf("states=%d pairs=%d pass=%v, want %d %d %v",
				rep.States, rep.Pairs, rep.Passed(), row.states, row.pairs, row.pass)
		}
		return newDigest().int(rep.States).int(rep.Pairs).bool(rep.Passed()).
			int(len(rep.Failures)).int(len(rep.Degenerate)), nil
	}}
}
