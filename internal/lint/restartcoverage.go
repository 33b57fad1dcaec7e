package lint

// restartcoverage: a test package that arms an amnesiac crash-restart
// adversary (chaos.NewCrashRestart, NewRepeatedCrashRestart,
// NewAdaptiveRestart) against registered objects should be testing
// *recoverable* objects — that is the axis those adversaries exist to
// exercise. Restarting a plain object is only meaningful as a negative
// control (proving the object loses its power under restart, like E19's
// plain-Alg5 control), and a negative control should say so: the rule
// flags restart-arming test packages that never touch a recoverable
// constructor unless they carry a //detlint:allow restartcoverage with
// the control's justification.
//
// Like schedulecoverage, the rule reads each package's test files
// (Module.testFiles; the typed load excludes them) syntactically; the
// recoverable-constructor set, however, comes from the typed layer: it
// is every exported module function from which the construction of a
// sim.Recoverable implementor (persist.go) is reachable, computed as a
// reverse fixed point over the callgraph — NewWRN qualifies because it
// calls NewWRNCore, the api facade wrappers qualify because they call
// NewWRN. A test file declaring its own OnCrash method is a test-local
// recoverable implementation and exempts the package.

import (
	"fmt"
	"go/ast"
	"go/types"
)

// AnalyzerRestartCoverage returns the restartcoverage rule.
func AnalyzerRestartCoverage() *Analyzer {
	return &Analyzer{
		Name: "restartcoverage",
		Doc:  "restart-adversary tests target recoverable objects, or declare themselves negative controls",
		Run:  runRestartCoverage,
	}
}

// restartAdversaries are the amnesiac crash-restart scheduler
// constructors.
var restartAdversaries = map[string]bool{
	"NewCrashRestart":         true,
	"NewRepeatedCrashRestart": true,
	"NewAdaptiveRestart":      true,
}

func runRestartCoverage(m *Module) []Diagnostic {
	ctors := recoverableConstructors(m)
	var out []Diagnostic
	for _, pkg := range m.Pkgs {
		if d, ok := checkPackageRestarts(m, pkg, ctors); ok {
			out = append(out, d)
		}
	}
	return out
}

// checkPackageRestarts reads pkg's test files and reports whether the
// package arms a restart adversary against registered objects without
// ever touching a recoverable constructor.
func checkPackageRestarts(m *Module, pkg *Package, ctors map[string]bool) (Diagnostic, bool) {
	var firstArm *Diagnostic
	armed := ""
	registers, recoverable := false, false
	for _, f := range m.testFiles(pkg) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if cn := calledName(n); restartAdversaries[cn] && firstArm == nil {
					pos := m.Fset.Position(n.Pos())
					firstArm = &Diagnostic{Pos: pos}
					armed = cn
				}
			case *ast.KeyValueExpr:
				// Objects: ... in a sim.Config literal registers objects.
				if id, ok := n.Key.(*ast.Ident); ok && id.Name == "Objects" {
					registers = true
				}
			case *ast.SelectorExpr:
				// A map[string]sim.Object literal built by hand.
				if id, ok := n.X.(*ast.Ident); ok && id.Name == "sim" && n.Sel.Name == "Object" {
					registers = true
				}
			case *ast.Ident:
				if ctors[n.Name] {
					recoverable = true
				}
			case *ast.FuncDecl:
				// A test-local type with an OnCrash method is a recoverable
				// implementation the typed layer cannot see.
				if n.Recv != nil && n.Name.Name == "OnCrash" {
					recoverable = true
				}
			}
			return true
		})
	}
	if firstArm == nil || !registers || recoverable {
		return Diagnostic{}, false
	}
	firstArm.Msg = fmt.Sprintf(
		"test package %s arms the amnesiac restart adversary %s but never touches a recoverable constructor; restart an object that implements sim.Recoverable, or mark the negative control with //detlint:allow restartcoverage <why>",
		pkg.Types.Name(), armed)
	return *firstArm, true
}

// calledName extracts the syntactic callee name of a call expression:
// the identifier, or the selector's member.
func calledName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// recoverableConstructors returns the names of the exported module
// functions from which constructing a sim.Recoverable implementor is
// reachable, plus the implementor type names themselves (for test-side
// composite literals).
func recoverableConstructors(m *Module) map[string]bool {
	info := m.persistInfo()
	if len(info.byNamed) == 0 {
		return nil
	}
	g := m.CallGraph()
	nodes := g.sortedNodes()
	member := make(map[*FuncNode]bool)
	for _, n := range nodes {
		if constructsRecoverable(info, n) {
			member[n] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if member[n] {
				continue
			}
			for _, c := range n.Callees {
				if member[c] {
					member[n] = true
					changed = true
					break
				}
			}
		}
	}
	out := make(map[string]bool)
	for _, n := range nodes {
		if member[n] && n.Decl.Name.IsExported() {
			out[n.Fn.Name()] = true
		}
	}
	for _, pt := range info.types {
		out[pt.named.Obj().Name()] = true
	}
	return out
}

// constructsRecoverable reports whether the function's body directly
// builds a Recoverable implementor: a composite literal of one, or
// new(T) of one.
func constructsRecoverable(info *persistInfo, n *FuncNode) bool {
	found := false
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x := x.(type) {
		case *ast.CompositeLit:
			if nb := namedBase(n.Pkg.Info.TypeOf(x)); nb != nil && info.byNamed[nb] != nil {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) == 1 {
				if b, ok := n.Pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
					if nb := namedBase(n.Pkg.Info.TypeOf(x.Args[0])); nb != nil && info.byNamed[nb] != nil {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}
