package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"sort"
)

// AnalyzerHangSemantics returns the hangsemantics rule. The paper's
// bounded-use semantics is that an illegal or over-budget operation
// "hangs the system in a manner that cannot be detected": the object
// parks the caller forever (sim.HangCaller) and no other process can
// observe that the hang occurred. Surfacing the condition as an error
// value instead changes the model — an error is detectable, so protocols
// could branch on it and the impossibility arguments stop applying. The
// rule enforces the hang path two ways:
//
//   - inside internal/, a sim.Object's Apply must not manufacture error
//     values (errors.New, fmt.Errorf) or respond with one
//     (sim.Respond(err)); illegal invocations panic (a model-checking
//     signal) and bounded-use exhaustion hangs;
//   - module-wide, any use of a bounded-use sentinel error variable
//     (Err…Used / …Reuse / …Exhausted / …Budget / …Spent) is flagged: the
//     Bounded wrapper's ErrExhausted (internal/chaos, re-exported by the
//     facade) is the one documented crossing and must carry the
//     //detlint:allow annotation at each use.
func AnalyzerHangSemantics() *Analyzer {
	return &Analyzer{
		Name: "hangsemantics",
		Doc:  "bounded-use objects must park callers via the hang path, not return errors",
		Run:  runHangSemantics,
	}
}

// boundedUseSentinel matches names of package-level error variables that
// report bounded-use violations.
var boundedUseSentinel = regexp.MustCompile(`^Err.*(Used|Reuse|Reused|Exhausted|Budget|Spent|Twice)`)

func runHangSemantics(m *Module) []Diagnostic {
	var out []Diagnostic
	out = append(out, hangCheckApplies(m)...)
	out = append(out, hangCheckSentinels(m)...)
	return out
}

// hangCheckApplies flags error construction inside Apply methods of
// sim.Object implementations under internal/.
func hangCheckApplies(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, am := range applyMethods(m) {
		if !m.InScope(am.pkg, "internal") {
			continue
		}
		recv := fmt.Sprintf("(%s).Apply", receiverTypeName(am.decl))
		ast.Inspect(am.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := am.pkg.Info.Uses[rootIdent(call.Fun)].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch {
			case fn.Pkg().Path() == "errors" && fn.Name() == "New",
				fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
				out = append(out, Diagnostic{
					Pos: m.Fset.Position(call.Pos()),
					Msg: fmt.Sprintf("%s constructs an error (%s.%s); bounded-use and illegal invocations must hang (sim.HangCaller) or panic", recv, fn.Pkg().Name(), fn.Name()),
				})
			case fn.Pkg().Path() == m.Path+"/internal/sim" && fn.Name() == "Respond" && len(call.Args) == 1:
				if t := am.pkg.Info.TypeOf(call.Args[0]); t != nil && implementsError(t) {
					out = append(out, Diagnostic{
						Pos: m.Fset.Position(call.Pos()),
						Msg: recv + " responds with an error value; an illegal invocation must hang the caller undetectably",
					})
				}
			}
			return true
		})
	}
	return out
}

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	iface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// hangCheckSentinels flags every use of a bounded-use sentinel error
// variable anywhere in the module (the declaration itself is fine).
func hangCheckSentinels(m *Module) []Diagnostic {
	sentinels := make(map[types.Object]bool)
	for _, pkg := range m.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			v, ok := scope.Lookup(name).(*types.Var)
			if !ok || !boundedUseSentinel.MatchString(name) {
				continue
			}
			if implementsError(v.Type()) {
				sentinels[v] = true
			}
		}
	}
	if len(sentinels) == 0 {
		return nil
	}
	var out []Diagnostic
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := pkg.Info.Uses[id]; obj != nil && sentinels[obj] {
					out = append(out, Diagnostic{
						Pos: m.Fset.Position(id.Pos()),
						Msg: fmt.Sprintf("bounded-use violation surfaced as error %s; the model requires the undetectable hang path", id.Name),
					})
				}
				return true
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}
