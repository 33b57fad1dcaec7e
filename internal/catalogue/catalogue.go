// Package catalogue declares each experiment row of E1, E3, E4, E5,
// E9, E11 and E20 once: the configuration the row runs, the process
// symmetry its reduced runs quotient by, and the verdict it expects.
// cmd/detobj, the root benchmarks and soak tests, and
// internal/modelcheck's oracle tests all build their workloads from
// here, so a row cannot drift between the command and the tests that
// check it.
//
// A row is plain data plus a builder over inputs its caller gives: ids,
// proposals, seeds and step budgets stay with the caller. Every
// builder returns a fresh configuration on each call, so a row's
// Config method (or field) is a modelcheck.Factory. The package
// imports no modelcheck, so that package's in-package tests can read
// it; a caller turns a Symmetry into the engine's with
// modelcheck.SymmetricClasses and modelcheck.RenameByInputs.
package catalogue

import (
	"fmt"

	"detobj/internal/chaos"
	"detobj/internal/consensus"
	"detobj/internal/recoverable"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// Symmetry is a row's process symmetry as data: the classes of
// interchangeable processes, and every process's proposal, by which
// decisions are renamed when processes are.
type Symmetry struct {
	Classes [][]int
	Inputs  []sim.Value
}

// E1 is Algorithm 2 (Corollaries 8–9): one process per proposal, each
// writing its own index of one 1sWRN_k object "W" and reading its
// successor's, k = len(Inputs).
type E1 struct {
	Inputs []sim.Value
}

// Config builds a fresh configuration.
func (r E1) Config() sim.Config {
	objects := map[string]sim.Object{}
	return sim.Config{Objects: objects, Programs: setconsensus.NewAlg2(objects, "W", r.Inputs)}
}

// E3 is Algorithm 3 (Corollary 18): K participants with distinct
// original names out of M rename into 2K−1 names, then walk Family's
// relaxed WRN_K instances. Participant p has name IDs[p] and proposes
// Inputs[p].
type E3 struct {
	K, M   int
	Family setconsensus.IndexFamily
	IDs    []int
	Inputs []sim.Value
}

// Build builds a fresh configuration and returns the one-shot object
// under each relaxed instance, whose legal use the row checks.
func (r E3) Build() (sim.Config, []*wrn.OneShot) {
	objects := map[string]sim.Object{}
	a, ones := setconsensus.NewAlg3(objects, "A", r.K, r.M, r.Family)
	progs := make([]sim.Program, len(r.IDs))
	for p, id := range r.IDs {
		progs[p] = a.Program(id, r.Inputs[p])
	}
	return sim.Config{Objects: objects, Programs: progs}, ones
}

// E4 is the relaxed-WRN race of Claims 19–21: Procs contenders on one
// RlxWRN_K wrapper "W". Process 0 is alone on index 1 and proposes
// "solo"; every other process p races on index 0 and proposes "p<p>".
type E4 struct {
	K, Procs int
}

// Build builds a fresh configuration and returns the one-shot object
// the wrapper guards.
func (r E4) Build() (sim.Config, *wrn.OneShot) {
	objects := map[string]sim.Object{}
	rlx, one := wrn.NewRelaxed(objects, "W", r.K)
	inputs := r.inputs()
	progs := make([]sim.Program, r.Procs)
	for p, v := range inputs {
		index := 0
		if p == 0 {
			index = 1
		}
		progs[p] = func(ctx *sim.Ctx) sim.Value { return rlx.RlxWRN(ctx, index, v) }
	}
	return sim.Config{Objects: objects, Programs: progs}, one
}

// Config is Build without the one-shot object.
func (r E4) Config() sim.Config {
	cfg, _ := r.Build()
	return cfg
}

// Sym is the race's symmetry: every process but the solo one is
// interchangeable.
func (r E4) Sym() Symmetry {
	followers := make([]int, r.Procs-1)
	for i := range followers {
		followers[i] = i + 1
	}
	return Symmetry{Classes: [][]int{followers}, Inputs: r.inputs()}
}

func (r E4) inputs() []sim.Value {
	inputs := make([]sim.Value, r.Procs)
	inputs[0] = "solo"
	for p := 1; p < r.Procs; p++ {
		inputs[p] = fmt.Sprintf("p%d", p)
	}
	return inputs
}

// E5 is Algorithm 5 (Corollary 37): K processes on one 1sWRN_K "LW"
// implemented from strong set election, process i proposing 100+i at
// index i. It is also E18's workload.
type E5 struct {
	K int
}

// Build builds a fresh configuration and returns the implementation,
// whose operations the row's linearizability check reads off the
// trace.
func (r E5) Build() (sim.Config, wrn.Impl) {
	objects := map[string]sim.Object{}
	impl := wrn.NewImpl(objects, "LW", r.K)
	progs := make([]sim.Program, r.K)
	for i := range progs {
		progs[i] = func(ctx *sim.Ctx) sim.Value { return impl.TracedWRN(ctx, i, 100+i) }
	}
	return sim.Config{Objects: objects, Programs: progs}, impl
}

// E9 is Algorithm 6 (§7.1): one process per proposal, grouped K at a
// time onto ⌈n/K⌉ 1sWRN_K objects "G[g]", n = len(Inputs).
type E9 struct {
	K      int
	Inputs []sim.Value
}

// Config builds a fresh configuration.
func (r E9) Config() sim.Config {
	objects := map[string]sim.Object{}
	a := setconsensus.NewAlg6(objects, "G", len(r.Inputs), r.K)
	progs := make([]sim.Program, len(r.Inputs))
	for i, v := range r.Inputs {
		progs[i] = a.Program(i, v)
	}
	return sim.Config{Objects: objects, Programs: progs}
}

// Protocol is one row of E11 or E20: a consensus protocol whose
// processes propose 10, 20 (and 30).
type Protocol struct {
	// ID keys the row in the engine tests; Name labels it in the
	// driver's table.
	ID, Name string
	// Config builds a fresh configuration on every call.
	Config func() sim.Config
	// Sym is the proposers' symmetry (E11 only).
	Sym Symmetry
	// Agreement is the verdict the row expects: in every execution for
	// E11, and at every point of E20Grid for E20 (under full
	// persistence every E20 row agrees).
	Agreement bool
}

// proposing10And20 is the configuration of a two-process protocol on
// object name, its processes proposing 10 and 20.
func proposing10And20(build func(map[string]sim.Object, string, sim.Value, sim.Value) []sim.Program, name string) func() sim.Config {
	return func() sim.Config {
		objects := map[string]sim.Object{}
		return sim.Config{Objects: objects, Programs: build(objects, name, 10, 20)}
	}
}

// E11 is the consensus-number calibration: the classic 2-consensus
// protocols agree, and the naive 3-process protocol on WRN_2 must
// exhibit a disagreement. The two-process protocols are symmetric in
// their proposers; the naive one only in the two processes sharing
// WRN index 0.
func E11() []Protocol {
	two := Symmetry{Classes: [][]int{{0, 1}}, Inputs: []sim.Value{10, 20}}
	return []Protocol{
		{"swap", "2-cons from SWAP", proposing10And20(consensus.TwoConsFromSwap, "C"), two, true},
		{"wrn2", "2-cons from WRN_2", proposing10And20(consensus.TwoConsFromWRN2, "W"), two, true},
		{"tas", "2-cons from TAS", proposing10And20(consensus.TwoConsFromTAS, "T"), two, true},
		{"queue", "2-cons from queue", proposing10And20(consensus.TwoConsFromQueue, "Q"), two, true},
		{"fetchadd", "2-cons from f&add", proposing10And20(consensus.TwoConsFromFetchAdd, "F"), two, true},
		{"naive3", "3 procs on WRN_2", func() sim.Config {
			objects := map[string]sim.Object{}
			progs := consensus.ThreeFromWRN2Naive(objects, "W", [3]sim.Value{10, 20, 30})
			return sim.Config{Objects: objects, Programs: progs}
		}, Symmetry{Classes: [][]int{{0, 2}}, Inputs: []sim.Value{10, 20, 30}}, false},
	}
}

// E20 is Ovens 2024's recoverable-consensus calibration: each object's
// restart-aware 2-consensus protocol, with durable proposal and
// decision registers around the racing object "X". The plain objects
// lose their consensus power to an amnesiac restart; the recoverable
// ones keep it.
func E20() []Protocol {
	return []Protocol{
		{ID: "plain TAS", Name: "plain TAS", Config: proposing10And20(recoverable.TwoConsFromPlainTAS, "X")},
		{ID: "rec TAS", Name: "recoverable TAS", Config: proposing10And20(recoverable.TwoConsFromRecTAS, "X"), Agreement: true},
		{ID: "plain WRN_2", Name: "plain WRN_2", Config: proposing10And20(recoverable.TwoConsFromPlainWRN2, "X")},
		{ID: "rec WRN_2", Name: "recoverable WRN_2", Config: proposing10And20(recoverable.TwoConsFromRecWRN2, "X"), Agreement: true},
	}
}

// Point is one amnesiac crash-restart of the E20 sweep: Victim
// crashes at global step CrashAt and restarts Window steps later.
type Point struct {
	Victim, CrashAt, Window int
}

// E20Grid is the sweep every E20 row runs under: victims 0 and 1 ×
// crash steps 0–6 × restart windows 0 and 3, window innermost.
func E20Grid() []Point {
	var grid []Point
	for victim := 0; victim < 2; victim++ {
		for crashAt := 0; crashAt <= 6; crashAt++ {
			for _, window := range []int{0, 3} {
				grid = append(grid, Point{victim, crashAt, window})
			}
		}
	}
	return grid
}

// Adversary wraps a run's scheduler in the point's amnesiac
// CrashRestart. It is the wrap modelcheck.AnalyzeValencyUnder takes,
// which calls it once per run, so every run gets a fresh adversary.
func (p Point) Adversary(inner sim.Scheduler) sim.Scheduler {
	return chaos.NewCrashRestart(inner, chaos.NewReport(0), p.Victim, p.CrashAt, p.Window)
}

func (p Point) String() string {
	return fmt.Sprintf("victim=%d crashAt=%d window=%d", p.Victim, p.CrashAt, p.Window)
}
