// Command modelcheck runs the exhaustive verification experiments: the
// mechanized Lemma 38 indistinguishability analysis over the object zoo
// (E6), the valency analysis of the 2-consensus protocols (E11), and
// the recoverable-consensus calibration under amnesiac crash-restart
// (E20).
//
// Every row carries its expected verdict (the paper's classification,
// extended by Ovens 2024 for the restart rows); the driver exits
// non-zero when any computed verdict diverges, so a regression in the
// engines or the objects cannot print a plausible table and still
// report success. Every engine runs sequentially. The E11 and E20
// valency trees run on the model checker's tree-search engine in
// exhaustive mode (trivial symmetry group, no transposition table);
// each E20 sweep point is an exhaustive deterministic tree of its own.
// The stdout of `-exp all`, with and without -stats, is pinned byte for
// byte under testdata/.
//
// With -stats, which needs -exp all or e11, the driver also runs the
// same engine with its reductions on (modelcheck.ExploreReduced /
// AnalyzeValencyReduced) and prints their transposition-table
// accounting — representatives, distinct configurations, hits and
// misses — while cross-checking every reconstructed count and verdict
// against exhaustive mode; any divergence exits non-zero.
//
// Usage:
//
//	modelcheck [-exp e6|e11|e20|all] [-stats]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"detobj/internal/chaos"
	"detobj/internal/consensus"
	"detobj/internal/modelcheck"
	"detobj/internal/recoverable"
	"detobj/internal/registers"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e6, e11, e20 or all")
	stats := flag.Bool("stats", false, "run the symmetry-reduction engines next to the exhaustive ones and print their transposition-table accounting")
	flag.Parse()
	if err := run(os.Stdout, *exp, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, stats bool) error {
	if stats && exp != "all" && exp != "e11" {
		return fmt.Errorf("-stats needs -exp all or e11, got %q", exp)
	}
	matched := false
	if exp == "all" || exp == "e6" {
		matched = true
		if err := expE6(w); err != nil {
			return fmt.Errorf("e6: %w", err)
		}
	}
	if exp == "all" || exp == "e11" {
		matched = true
		if err := expE11(w); err != nil {
			return fmt.Errorf("e11: %w", err)
		}
	}
	if stats {
		if err := expReduced(w); err != nil {
			return fmt.Errorf("reduction: %w", err)
		}
	}
	if exp == "all" || exp == "e20" {
		matched = true
		if err := expE20(w); err != nil {
			return fmt.Errorf("e20: %w", err)
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// expE6: the Lemma 38 obligations across the object zoo.
func expE6(w io.Writer) error {
	fmt.Fprintln(w, "E6  Lemma 38 mechanized: indistinguishability obligations per object")
	fmt.Fprintln(w, "    pass = no process can both survive an operation race and observe its order")
	fmt.Fprintln(w, "object          states  pairs   distinguishing  degenerate  verdict")

	type row struct {
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
	rows := []row{
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
	for _, r := range rows {
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

// e11Row is one protocol of the E11 table, carrying the symmetry group
// the reduction cross-check quotients it by.
type e11Row struct {
	name string
	f    modelcheck.Factory
	sym  modelcheck.Symmetry
	// wantAgreement: every protocol agrees except the naive 3-process
	// one on WRN_2, which must exhibit a disagreeing execution.
	wantAgreement bool
}

// e11Rows builds the E11 protocol table. The two-process protocols are
// fully symmetric in their proposers; the naive 3-process one only in
// the two processes sharing WRN index 0.
func e11Rows() []e11Row {
	two := func(build func(map[string]sim.Object, string, sim.Value, sim.Value) []sim.Program, obj string) modelcheck.Factory {
		return func() sim.Config {
			objects := map[string]sim.Object{}
			progs := build(objects, obj, 10, 20)
			return sim.Config{Objects: objects, Programs: progs}
		}
	}
	sym2 := modelcheck.SymmetricClasses(2, []int{0, 1})
	sym2.Rename = modelcheck.RenameByInputs([]sim.Value{10, 20})
	naiveSym := modelcheck.SymmetricClasses(3, []int{0, 2})
	naiveSym.Rename = modelcheck.RenameByInputs([]sim.Value{10, 20, 30})
	return []e11Row{
		{"2-cons from SWAP", two(consensus.TwoConsFromSwap, "C"), sym2, true},
		{"2-cons from WRN_2", two(consensus.TwoConsFromWRN2, "W"), sym2, true},
		{"2-cons from TAS", two(consensus.TwoConsFromTAS, "T"), sym2, true},
		{"2-cons from queue", two(consensus.TwoConsFromQueue, "Q"), sym2, true},
		{"2-cons from f&add", two(consensus.TwoConsFromFetchAdd, "F"), sym2, true},
		{"3 procs on WRN_2", func() sim.Config {
			objects := map[string]sim.Object{}
			progs := consensus.ThreeFromWRN2Naive(objects, "W", [3]sim.Value{10, 20, 30})
			return sim.Config{Objects: objects, Programs: progs}
		}, naiveSym, false},
	}
}

// expE11: valency analysis of the 2-consensus protocols.
func expE11(w io.Writer) error {
	fmt.Fprintln(w, "E11 Valency analysis: SWAP/WRN_2/TAS solve 2-consensus; the naive 3-process protocol breaks")
	fmt.Fprintln(w, "protocol            configs  executions  bivalent  critical  agreement")
	wrong := 0
	for _, r := range e11Rows() {
		rep, err := modelcheck.AnalyzeValency(r.f, 0)
		if err != nil {
			return err
		}
		note := ""
		if rep.Agreement != r.wantAgreement {
			note = "  ** UNEXPECTED **"
			wrong++
		}
		fmt.Fprintf(w, "%-19s %-8d %-11d %-9d %-9d %v%s\n",
			r.name, rep.Configs, rep.Executions, rep.Bivalent, rep.Critical, rep.Agreement, note)
	}
	fmt.Fprintln(w)
	if wrong > 0 {
		return fmt.Errorf("%d protocol(s) contradict the paper's classification", wrong)
	}
	return nil
}

// expReduced (-stats): the symmetry-reduction engines run next to the
// exhaustive ones. The E11 protocols are re-analyzed with
// AnalyzeValencyReduced under their proposer symmetries, and the E4
// relaxed-WRN race is re-explored with ExploreReduced under follower
// symmetry; every reconstructed count and verdict is cross-checked
// against the unreduced oracle and any divergence is an error.
func expReduced(w io.Writer) error {
	fmt.Fprintln(w, "E11r Symmetry + transposition reduction vs the exhaustive oracle")
	fmt.Fprintln(w, "protocol            group  reduced  runs    hits    misses  executions  verdict")
	wrong := 0
	for _, r := range e11Rows() {
		oracle, err := modelcheck.AnalyzeValency(r.f, 0)
		if err != nil {
			return err
		}
		rep, srep, err := modelcheck.AnalyzeValencyReduced(r.f, modelcheck.Reduced{Sym: r.sym}, 0)
		if err != nil {
			return fmt.Errorf("%s reduced: %w", r.name, err)
		}
		verdict := "match"
		if rep.Configs != oracle.Configs || rep.Executions != oracle.Executions ||
			rep.Bivalent != oracle.Bivalent || rep.Critical != oracle.Critical ||
			rep.Agreement != oracle.Agreement || !equalStrings(rep.Values, oracle.Values) {
			verdict = "** MISMATCH **"
			wrong++
		}
		fmt.Fprintf(w, "%-19s %-6d %-8d %-7d %-7d %-7d %-11d %s\n",
			r.name, srep.Group, srep.ReducedConfigs, srep.Runs, srep.Hits, srep.Misses, srep.Executions, verdict)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "E4r  Reduced exploration of the relaxed-WRN race (followers interchangeable)")
	fmt.Fprintln(w, "workload            group  reduced  runs    hits    misses  executions  verdict")
	for _, procs := range []int{4, 5} {
		f := relaxedE4Factory(3, procs)
		followers := make([]int, procs-1)
		for i := range followers {
			followers[i] = i + 1
		}
		srep, err := modelcheck.ExploreReduced(f, modelcheck.Reduced{
			Sym: modelcheck.SymmetricClasses(procs, followers),
		}, 1<<40, nil)
		if err != nil {
			return fmt.Errorf("E4 procs=%d reduced: %w", procs, err)
		}
		verdict := "match"
		// procs=5 is exactly what the reduction buys: the unreduced
		// count is out of interactive reach, so it is cross-checked at
		// procs=4 here (and once offline for procs=5 — see
		// TestReducedE4Procs5 in internal/modelcheck).
		if procs == 4 {
			oracle, err := modelcheck.Explore(f, 1<<40, func(modelcheck.Execution) error { return nil })
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
	fmt.Fprintln(w)
	if wrong > 0 {
		return fmt.Errorf("%d reduced verdict(s) diverge from the exhaustive oracle", wrong)
	}
	return nil
}

// relaxedE4Factory is the E4 workload: procs contenders racing on a
// relaxed WRN_k wrapper, process 0 alone on index 1.
func relaxedE4Factory(k, procs int) modelcheck.Factory {
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

// equalStrings compares two string slices element-wise.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
// retain it; any row contradicting that calibration exits non-zero.
func expE20(w io.Writer) error {
	fmt.Fprintln(w, "E20 Recoverable consensus: amnesiac restarts strip plain objects of their power (Ovens 2024)")
	fmt.Fprintln(w, "    full-persist = plain valency analysis (recovery resumes with all state, as in E11)")
	fmt.Fprintln(w, "    amnesiac     = exhaustive valency under CrashRestart sweeps of victim x crashAt x window")
	fmt.Fprintln(w, "object             full-persist  amnesiac   sweeps  configs   executions  verdict")

	type row struct {
		name  string
		build func(map[string]sim.Object, string, sim.Value, sim.Value) []sim.Program
		// wantAmnesiac: recoverable implementations keep agreement under
		// amnesiac restart; plain ones must exhibit a disagreement.
		wantAmnesiac bool
	}
	rows := []row{
		{"plain TAS", recoverable.TwoConsFromPlainTAS, false},
		{"recoverable TAS", recoverable.TwoConsFromRecTAS, true},
		{"plain WRN_2", recoverable.TwoConsFromPlainWRN2, false},
		{"recoverable WRN_2", recoverable.TwoConsFromRecWRN2, true},
	}
	victims := []int{0, 1}
	crashAts := []int{0, 1, 2, 3, 4, 5, 6}
	windows := []int{0, 3}
	wrong := 0
	for _, r := range rows {
		f := func() sim.Config {
			objects := map[string]sim.Object{}
			progs := r.build(objects, "X", 10, 20)
			return sim.Config{Objects: objects, Programs: progs}
		}
		full, err := modelcheck.AnalyzeValency(f, 0)
		if err != nil {
			return fmt.Errorf("%s full-persistence: %w", r.name, err)
		}
		sweeps, configs, executions, disagreeing := 0, full.Configs, full.Executions, 0
		//detlint:hot the E20 sweep is the calibration's hot loop: one exhaustive valency tree per (victim, crashAt, window) point
		for _, victim := range victims {
			for _, crashAt := range crashAts {
				for _, window := range windows {
					victim, crashAt, window := victim, crashAt, window
					rep, err := modelcheck.AnalyzeValencyUnder(f, func(inner sim.Scheduler) sim.Scheduler {
						return chaos.NewCrashRestart(inner, chaos.NewReport(0), victim, crashAt, window)
					}, 0)
					if err != nil {
						return fmt.Errorf("%s amnesiac victim=%d crashAt=%d window=%d: %w",
							r.name, victim, crashAt, window, err)
					}
					sweeps++
					configs += rep.Configs
					executions += rep.Executions
					if !rep.Agreement {
						disagreeing++
					}
				}
			}
		}
		fullCol, amnesiacCol := verdictWord(full.Agreement), verdictWord(disagreeing == 0)
		verdict := "power retained"
		if !r.wantAmnesiac {
			verdict = "consensus power lost to the restart"
		}
		if full.Agreement != true || (disagreeing == 0) != r.wantAmnesiac {
			verdict += "  ** UNEXPECTED **"
			wrong++
		}
		fmt.Fprintf(w, "%-18s %-13s %-10s %-7d %-9d %-11d %s\n",
			r.name, fullCol, amnesiacCol, sweeps, configs, executions, verdict)
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
