package lint

// boxing flags interface conversions of non-pointer values on hot
// paths. Storing a concrete non-pointer value into an interface —
// passing an int to a variadic ...any, keying a map[any]..., filling
// an any-typed signature row — heap-allocates a copy on every
// conversion; pointer-shaped values (pointers, maps, channels,
// functions) ride in the interface word for free. On the exhaustive
// engines' per-node paths this is the silent half of the fmt cost:
// BENCH_5's E6 profile was dominated by invocation values boxed once
// per (state, operation) step. The rule shares .detlint.hot budget
// semantics with hotalloc: fix the site, budget it, or justify an
// allow.
//
// Recognized conversion contexts, all at total hot loop depth ≥ 1:
//
//   - explicit conversion I(v) to an interface type;
//   - call arguments (variadic included) whose parameter type is an
//     interface — the fmt variadic is the canonical case;
//   - assignment or definition into an interface-typed variable/field;
//   - map index or assignment keying an interface-keyed map;
//   - composite-literal elements (and map-literal keys) of interface
//     element type — the "signature row" shape;
//   - returns whose declared result type is an interface;
//   - sends into interface-element channels.
//
// Constant operands are exempt: the compiler materializes those boxes
// in static data.

import (
	"fmt"
	"go/ast"
	"go/types"
)

const boxingName = "boxing"

// AnalyzerBoxing returns the boxing rule.
func AnalyzerBoxing() *Analyzer {
	return &Analyzer{
		Name: boxingName,
		Doc:  "interface conversions of non-pointer values on hot paths box a heap copy per conversion; fix, budget, or justify",
		Run:  runBoxing,
	}
}

func runBoxing(m *Module) []Diagnostic {
	g := m.CallGraph()
	h := m.hotPaths()
	var out []Diagnostic
	for _, n := range g.sortedNodes() {
		fd, hot := h.funcDepth(n)
		if !hot || !m.InScope(n.Pkg, "internal", "cmd") {
			continue
		}
		var diags []Diagnostic
		report := func(x ast.Expr, depth int, ctx string) {
			if depth > maxHotDepth {
				depth = maxHotDepth
			}
			via := ""
			if w := h.witness[n]; w != nil && w != n {
				via = fmt.Sprintf(" (reachable from %s)", funcLabel(w))
			}
			diags = append(diags, Diagnostic{
				Pos: m.position(x),
				Msg: fmt.Sprintf("%s boxes a %s %s in hot loop in %s%s (depth %d, weight %d): pass a pointer, pre-box outside the loop, budget it in %s, or justify an allow",
					ctx, shortType(n.Pkg, x), valueShape(n.Pkg, x), funcLabel(n), via, depth, hotWeight(depth), HotBudgetFileName),
			})
		}
		resultTypes := declResultTypes(n)
		loopDepthWalk(n.Decl.Body, func(x ast.Node, sd int) {
			total := fd + sd
			if total < 1 {
				return
			}
			boxingSitesAt(n.Pkg, x, resultTypes, func(e ast.Expr, ctx string) {
				report(e, total, ctx)
			})
		})
		if len(diags) > 0 {
			out = append(out, applyBudget(m, boxingName, n, diags)...)
		}
	}
	return append(out, budgetProblems(m, boxingName)...)
}

// boxesInto reports whether storing expr into a slot of type `to`
// allocates: `to` is an interface, expr's concrete type is not
// pointer-shaped, and expr is neither constant nor already an
// interface or untyped nil.
func boxesInto(pkg *Package, to types.Type, expr ast.Expr) bool {
	if !isInterfaceType(to) {
		return false
	}
	t := pkg.Info.TypeOf(expr)
	if t == nil || isInterfaceType(t) || pointerShaped(t) {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !isConstExpr(pkg, expr)
}

// pointerShaped reports whether values of t occupy the interface data
// word directly, with no boxing allocation.
func pointerShaped(t types.Type) bool {
	switch types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

// valueShape names the boxed value's kind for the message.
func valueShape(pkg *Package, x ast.Expr) string {
	t := pkg.Info.TypeOf(x)
	if t == nil {
		return "value"
	}
	switch types.Unalias(t).Underlying().(type) {
	case *types.Struct:
		return "struct"
	case *types.Slice:
		return "slice header"
	case *types.Array:
		return "array"
	default:
		return "value"
	}
}

// declResultTypes returns the declared result types of the function,
// for the return-context check.
func declResultTypes(n *FuncNode) []types.Type {
	sig, ok := n.Fn.Type().(*types.Signature)
	if !ok || sig.Results() == nil {
		return nil
	}
	out := make([]types.Type, sig.Results().Len())
	for i := range out {
		out[i] = sig.Results().At(i).Type()
	}
	return out
}

// boxingSitesAt reports every boxing conversion a single AST node
// performs.
func boxingSitesAt(pkg *Package, x ast.Node, results []types.Type, report func(ast.Expr, string)) {
	switch x := x.(type) {
	case *ast.CallExpr:
		if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() {
			if len(x.Args) == 1 && boxesInto(pkg, tv.Type, x.Args[0]) {
				report(x.Args[0], "interface conversion")
			}
			return
		}
		sig := callSignature(pkg, x)
		if sig == nil {
			return
		}
		for i, arg := range x.Args {
			pt := paramTypeAt(sig, i)
			if boxesInto(pkg, pt, arg) {
				ctx := "argument"
				if sig.Variadic() && i >= sig.Params().Len()-1 {
					ctx = "variadic argument"
				}
				report(arg, ctx)
			}
		}
	case *ast.IndexExpr:
		if mt, ok := mapTypeOf(pkg, x.X); ok && boxesInto(pkg, mt.Key(), x.Index) {
			report(x.Index, "interface-keyed map index")
		}
	case *ast.AssignStmt:
		if len(x.Lhs) != len(x.Rhs) {
			return
		}
		for i, l := range x.Lhs {
			lt := pkg.Info.TypeOf(l)
			if boxesInto(pkg, lt, x.Rhs[i]) {
				report(x.Rhs[i], "interface assignment")
			}
		}
	case *ast.CompositeLit:
		lt := pkg.Info.TypeOf(x)
		if lt == nil {
			return
		}
		var elem, key types.Type
		switch u := types.Unalias(lt).Underlying().(type) {
		case *types.Slice:
			elem = u.Elem()
		case *types.Array:
			elem = u.Elem()
		case *types.Map:
			elem, key = u.Elem(), u.Key()
		default:
			return
		}
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key != nil && boxesInto(pkg, key, kv.Key) {
					report(kv.Key, "interface map-literal key")
				}
				el = kv.Value
			}
			if boxesInto(pkg, elem, el) {
				report(el, "interface-typed row element")
			}
		}
	case *ast.ReturnStmt:
		if len(x.Results) != len(results) {
			return
		}
		for i, r := range x.Results {
			if boxesInto(pkg, results[i], r) {
				report(r, "interface return")
			}
		}
	case *ast.SendStmt:
		ct := pkg.Info.TypeOf(x.Chan)
		if ct == nil {
			return
		}
		if ch, ok := types.Unalias(ct).Underlying().(*types.Chan); ok {
			if boxesInto(pkg, ch.Elem(), x.Value) {
				report(x.Value, "interface channel send")
			}
		}
	}
}

// mapTypeOf unwraps the expression's type to a map type, if it is one.
func mapTypeOf(pkg *Package, x ast.Expr) (*types.Map, bool) {
	t := pkg.Info.TypeOf(x)
	if t == nil {
		return nil, false
	}
	mt, ok := types.Unalias(t).Underlying().(*types.Map)
	return mt, ok
}
