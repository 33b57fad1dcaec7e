package lint

// hotalloc rides the hot-path and escape layers: every heap
// allocation site at loop depth ≥ 1 under a hot entrypoint is a
// finding, reported with its static execution-count weight. The
// exhaustive engines turn a single per-iteration allocation into
// millions of allocations per run (BENCH_5: 4.9M allocs/op on the E4
// explore), so the rule's job is not to forbid allocation but to make
// every hot site a deliberate, budgeted decision: fix it, budget it in
// .detlint.hot, or //detlint:allow it with a justification.
//
// Recognized site kinds:
//
//   - make of a slice, map, or channel;
//   - new(T) and composite literals — only when the escape analysis
//     (escape.go) cannot prove the value stays in the frame, since the
//     compiler stack-allocates the rest;
//   - append (possible growth; amortized O(1) still allocates);
//   - string concatenation (+ / += on strings, non-constant);
//   - fmt calls except Errorf (reflection walk plus variadic boxing;
//     Errorf is error-path construction, hangsemantics' beat).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

const hotAllocName = "hotalloc"

// AnalyzerHotAlloc returns the hotalloc rule.
func AnalyzerHotAlloc() *Analyzer {
	return &Analyzer{
		Name: hotAllocName,
		Doc:  "heap allocation sites in loops reachable from hot entrypoints must be fixed, budgeted in .detlint.hot, or justified",
		Run:  runHotAlloc,
	}
}

func runHotAlloc(m *Module) []Diagnostic {
	g := m.CallGraph()
	h := m.hotPaths()
	e := m.escapes()
	var out []Diagnostic
	for _, n := range g.sortedNodes() {
		fd, hot := h.funcDepth(n)
		if !hot || !m.InScope(n.Pkg, "internal", "cmd") {
			continue
		}
		via := ""
		if w := h.witness[n]; w != nil && w != n {
			via = fmt.Sprintf(" (reachable from %s)", funcLabel(w))
		}
		parents := parentsOf(m, n)
		var diags []Diagnostic
		loopDepthWalk(n.Decl.Body, func(x ast.Node, sd int) {
			total := fd + sd
			if total > maxHotDepth {
				total = maxHotDepth
			}
			if total < 1 {
				// A site outside any loop in a depth-0 function runs once
				// per engine call; only looped execution is hot.
				return
			}
			if kind, ok := classifyAllocSite(n.Pkg, n, e, parents, x); ok {
				diags = append(diags, Diagnostic{
					Pos: m.position(x),
					Msg: fmt.Sprintf("%s in hot loop in %s%s (depth %d, weight %d): hoist it, budget it in %s, or justify an allow",
						kind, funcLabel(n), via, total, hotWeight(total), HotBudgetFileName),
				})
			}
		})
		if len(diags) > 0 {
			out = append(out, applyBudget(m, hotAllocName, n, diags)...)
		}
	}
	return append(out, budgetProblems(m, hotAllocName)...)
}

// parentsOf returns the parent map of the file declaring n.
func parentsOf(m *Module, n *FuncNode) map[ast.Node]ast.Node {
	for _, f := range n.Pkg.Files {
		if f.Pos() <= n.Decl.Pos() && n.Decl.Pos() < f.End() {
			return parentMap(f)
		}
	}
	return nil
}

// classifyAllocSite recognizes one AST node as an allocation site.
func classifyAllocSite(pkg *Package, n *FuncNode, e *escAnalysis, parents map[ast.Node]ast.Node, x ast.Node) (string, bool) {
	switch x := x.(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "make":
					return "make(" + shortType(pkg, x.Args[0]) + ")", true
				case "new":
					if !mayEscape(pkg, n, e, parents, x) {
						return "", false
					}
					return "new(" + shortType(pkg, x.Args[0]) + ")", true
				case "append":
					return "append growth", true
				}
				return "", false
			}
		}
		if fn := resolvedFunc(pkg, x); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Name() != "Errorf" {
			return "fmt call (fmt." + fn.Name() + ")", true
		}
	case *ast.CompositeLit:
		if insideCompositeLit(parents, x) {
			return "", false // part of the enclosing literal's allocation
		}
		if !mayEscape(pkg, n, e, parents, x) {
			return "", false
		}
		return "escaping composite literal (" + shortType(pkg, x) + ")", true
	case *ast.BinaryExpr:
		if x.Op != token.ADD || !isStringExpr(pkg, x) || isConstExpr(pkg, x) {
			return "", false
		}
		if p, ok := parents[x].(*ast.BinaryExpr); ok && p.Op == token.ADD && isStringExpr(pkg, p) {
			return "", false // count a chained concatenation once, at the top
		}
		return "string concatenation", true
	case *ast.AssignStmt:
		if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringExpr(pkg, x.Lhs[0]) {
			return "string concatenation", true
		}
	}
	return "", false
}

// insideCompositeLit reports whether the literal is an element of an
// enclosing composite literal (same backing allocation).
func insideCompositeLit(parents map[ast.Node]ast.Node, x ast.Node) bool {
	for p := parents[x]; p != nil; p = parents[p] {
		switch p.(type) {
		case *ast.CompositeLit:
			return true
		case *ast.KeyValueExpr:
			continue
		default:
			return false
		}
	}
	return false
}

func isStringExpr(pkg *Package, x ast.Expr) bool {
	t := pkg.Info.TypeOf(x)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(pkg *Package, x ast.Expr) bool {
	tv, ok := pkg.Info.Types[x]
	return ok && tv.Value != nil
}

// shortType renders a type expression relative to its package.
func shortType(pkg *Package, x ast.Expr) string {
	if t := pkg.Info.TypeOf(x); t != nil {
		return types.TypeString(t, types.RelativeTo(pkg.Types))
	}
	return "?"
}
