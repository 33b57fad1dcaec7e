package lint

// injectionpurity guards the determinism of the fault plan: a crash or
// restart directive an adversary issues must be a pure function of its
// seed and the run it observes, or the schedule stops replaying from the
// seed. The rule finds every chaos decision function in internal/chaos
// — anything returning sim.Fault, which is how decisions are spelled
// (the adversaries' FaultInjector.Faults methods and their helpers) —
// and walks its transitive module callees rejecting every construct
// whose result depends on anything else: wall clocks, the global rand
// source, runtime introspection, the environment, channel traffic,
// goroutine spawns. Executing a fault (the simulator runtime's
// crash/restart application) returns no Fault and stays out of scope.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerInjectionPurity returns the injectionpurity rule for
// internal/chaos.
func AnalyzerInjectionPurity() *Analyzer {
	return &Analyzer{
		Name: "injectionpurity",
		Doc:  "chaos injection decisions must be pure functions of the seed and the observed run: no clocks, global rand, runtime/os calls, or channel traffic",
		Run:  runInjectionPurity,
	}
}

func runInjectionPurity(m *Module) []Diagnostic {
	g := m.CallGraph()
	faultPath := m.Path + "/internal/sim"

	nodes := g.sortedNodes()
	var roots []*FuncNode
	for _, n := range nodes {
		if !m.InScope(n.Pkg, "internal/chaos") && !m.isFixture(n.Pkg, "restartok", "restartbad") {
			continue
		}
		if returnsFault(n.Fn, faultPath) {
			roots = append(roots, n)
		}
	}

	witness := g.ReachableWitness(roots, nil)
	var out []Diagnostic
	for _, n := range nodes {
		w, ok := witness[n]
		if !ok {
			continue
		}
		via := ""
		if w != n {
			via = fmt.Sprintf(" (reachable from decision %s)", funcLabel(w))
		}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			why := impureConstruct(n.Pkg, x)
			if why == "" {
				return true
			}
			out = append(out, Diagnostic{
				Pos: m.position(x),
				Msg: fmt.Sprintf("%s in %s%s: an injection decision must be a pure function of the seed and the observed run so fault plans replay from the seed",
					why, funcLabel(n), via),
			})
			return true
		})
	}
	return out
}

// returnsFault reports whether the function's results include the
// Fault type of the package at faultPath (sim.Fault), directly or as a
// slice/array element (directive batches).
func returnsFault(fn *types.Func, faultPath string) bool {
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		t := res.At(i).Type()
		switch u := t.(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		}
		if n := namedBase(t); n != nil && n.Obj().Name() == "Fault" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == faultPath {
			return true
		}
	}
	return false
}

// impureConstruct classifies one AST node as a purity violation,
// returning a human-readable reason or "".
func impureConstruct(pkg *Package, x ast.Node) string {
	switch x := x.(type) {
	case *ast.CallExpr:
		fn := resolvedFunc(pkg, x)
		if fn == nil || fn.Pkg() == nil {
			return ""
		}
		switch fn.Pkg().Path() {
		case "time":
			if isFunc(fn, "time", "Now", "Since", "Until", "Sleep",
				"After", "AfterFunc", "Tick", "NewTimer", "NewTicker") {
				return "time." + fn.Name() + " (wall clock)"
			}
		case "math/rand", "math/rand/v2":
			if isGlobalRand(fn) {
				return "rand." + fn.Name() + " (global random source)"
			}
		case "runtime":
			return "runtime." + fn.Name() + " (runtime introspection/scheduling)"
		case "os":
			return "os." + fn.Name() + " (environment access)"
		}
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "channel receive (depends on goroutine scheduling)"
		}
	case *ast.SendStmt:
		return "channel send (depends on goroutine scheduling)"
	case *ast.SelectStmt:
		return "select statement (runtime picks a ready case pseudo-randomly)"
	case *ast.GoStmt:
		return "goroutine spawn (decision would depend on the schedule)"
	}
	return ""
}

// isGlobalRand reports a package-level function of math/rand or
// math/rand/v2 backed by the shared global source.
func isGlobalRand(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	if p != "math/rand" && p != "math/rand/v2" {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return globalRandFuncs[fn.Name()]
}
