package lint

import (
	"fmt"
	"go/ast"
)

// AnalyzerScheduleCoverage returns the schedulecoverage rule. A
// simulator test that only ever runs under the default round-robin
// scheduler exercises exactly one interleaving per configuration: the
// friendliest one. Every scheduling bug this repository has caught was
// found by a seeded random, crashing, or chaos-adversary schedule, so
// the rule flags test packages that call sim.Run (or the facade's
// detobj.Run) without ever constructing a non-round-robin scheduler —
// a seeded sim.NewRandom sweep, sim.NewFixed, sim.NewCrashing, a
// chaos adversary, a custom Scheduler, or exhaustive
// modelcheck.Explore.
//
// The module loader deliberately excludes _test.go files (tests may use
// wall clocks and ad-hoc randomness), so this rule reads each package's
// test files syntactically (Module.testFiles); their //detlint:allow
// comments are honoured like any other.
func AnalyzerScheduleCoverage() *Analyzer {
	return &Analyzer{
		Name: "schedulecoverage",
		Doc:  "test packages driving sim.Run must vary the schedule beyond round-robin",
		Run:  runScheduleCoverage,
	}
}

// diverseSchedulers are the constructors and helpers whose mention in a
// test package demonstrates schedule diversity: the simulator's
// non-default schedulers, their facade spellings, the chaos adversaries,
// and exhaustive exploration.
var diverseSchedulers = map[string]bool{
	"NewRandom":               true,
	"NewFixed":                true,
	"NewCrashing":             true,
	"NewRandomScheduler":      true,
	"NewFixedSchedule":        true,
	"NewCrashingScheduler":    true,
	"NewCrashDuringOp":        true,
	"NewCrashRecovery":        true,
	"NewCrashRestart":         true,
	"NewRepeatedCrashRestart": true,
	"NewAdaptiveRestart":      true,
	"NewStall":                true,
	"NewAdaptive":             true,
	"NewAdaptiveAdversary":    true,
	"Instrument":              true,
	"InstrumentScheduler":     true,
	"Explore":                 true,
}

func runScheduleCoverage(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range m.Pkgs {
		d, ok := checkPackageSchedules(m, pkg)
		if ok {
			out = append(out, d)
		}
	}
	return out
}

// checkPackageSchedules reads pkg's test files and reports whether the
// package runs simulations without any schedule diversity.
func checkPackageSchedules(m *Module, pkg *Package) (Diagnostic, bool) {
	var firstRun *Diagnostic
	runs, diverse := 0, false
	for _, f := range m.testFiles(pkg) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isSimRunCall(n) && firstRun == nil {
					pos := m.Fset.Position(n.Pos())
					firstRun = &Diagnostic{Pos: pos}
				}
				if isSimRunCall(n) {
					runs++
				}
			case *ast.Ident:
				if diverseSchedulers[n.Name] {
					diverse = true
				}
			case *ast.FuncDecl:
				// A method named Next with a receiver is a custom
				// scheduler implementation — diversity by construction.
				if n.Recv != nil && n.Name.Name == "Next" {
					diverse = true
				}
			}
			return true
		})
	}
	if runs == 0 || diverse || firstRun == nil {
		return Diagnostic{}, false
	}
	firstRun.Msg = fmt.Sprintf(
		"test package %s calls sim.Run %d time(s) but only under the default round-robin schedule; sweep seeded sim.NewRandom, sim.NewCrashing, or a chaos adversary for schedule coverage",
		pkg.Types.Name(), runs)
	return *firstRun, true
}

// isSimRunCall matches sim.Run(...) and detobj.Run(...) syntactically.
func isSimRunCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Run" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && (id.Name == "sim" || id.Name == "detobj")
}
