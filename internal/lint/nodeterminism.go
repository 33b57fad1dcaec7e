package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerNoDeterminism returns the nodeterminism rule. Inside internal/
// and cmd/ — the simulator, the algorithms, the checkers and the table
// emitters — it flags the constructs that make a run, a trace, a printed
// table or a returned value depend on anything but (configuration, seed,
// schedule):
//
//   - time.Now / time.Since / time.Until: wall clocks leak real time
//     into decisions;
//   - the global math/rand source (rand.Intn et al.): unseeded, shared,
//     and irreproducible — use rand.New(rand.NewSource(seed));
//   - range over a map whose body is order-sensitive: iteration order is
//     randomized, so anything accumulated in order (appends that are
//     never sorted, early returns, printing) changes from run to run.
//     Commutative bodies — counter updates, writes into another map,
//     deletes, and key-collection followed by an explicit sort in the
//     same function — pass;
//   - select over multiple channels: the runtime picks a ready case
//     pseudo-randomly;
//   - go statements: spawned goroutines race unless the surrounding code
//     serializes them (the simulator's lockstep handshake is the one
//     justified, annotated case).
func AnalyzerNoDeterminism() *Analyzer {
	return &Analyzer{
		Name: "nodeterminism",
		Doc:  "flags wall clocks, global randomness, order-sensitive map iteration, selects and goroutines in internal/ and cmd/",
		Run:  runNoDeterminism,
	}
}

// globalRandFuncs are the math/rand package-level functions backed by the
// shared, unseeded global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint": true, "N": true,
}

func runNoDeterminism(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range m.Pkgs {
		if !m.InScope(pkg, "internal", "cmd") {
			continue
		}
		for _, f := range pkg.Files {
			parents := parentMap(f)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if d, ok := checkDetSelector(m, pkg, n); ok {
						out = append(out, d)
					}
				case *ast.SelectStmt:
					if len(n.Body.List) > 1 {
						out = append(out, Diagnostic{
							Pos: m.Fset.Position(n.Pos()),
							Msg: "select over multiple channels: the runtime chooses a ready case pseudo-randomly",
						})
					}
				case *ast.GoStmt:
					out = append(out, Diagnostic{
						Pos: m.Fset.Position(n.Pos()),
						Msg: "goroutine spawn: concurrent execution is unschedulable by the simulator",
					})
				case *ast.RangeStmt:
					out = append(out, checkMapRange(m, pkg, n, parents)...)
				}
				return true
			})
		}
	}
	return out
}

// checkDetSelector flags selector references to wall clocks and the
// global math/rand source. Resolution goes through the typed symbol API
// (typeload.go): a shadowed `time` identifier or a Now method on a user
// clock type never matches, and methods like (*rand.Rand).Intn — seeded
// by their receiver — pass.
func checkDetSelector(m *Module, pkg *Package, sel *ast.SelectorExpr) (Diagnostic, bool) {
	fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
	switch {
	case isFunc(fn, "time", "Now", "Since", "Until"):
		return Diagnostic{
			Pos: m.Fset.Position(sel.Pos()),
			Msg: fmt.Sprintf("time.%s: wall-clock reads break deterministic replay", fn.Name()),
		}, true
	case isGlobalRand(fn):
		return Diagnostic{
			Pos: m.Fset.Position(sel.Pos()),
			Msg: fmt.Sprintf("rand.%s uses the unseeded global source; use rand.New(rand.NewSource(seed))", fn.Name()),
		}, true
	}
	return Diagnostic{}, false
}

// checkMapRange flags `range` over a map whose loop body is
// order-sensitive.
func checkMapRange(m *Module, pkg *Package, rs *ast.RangeStmt, parents map[ast.Node]ast.Node) []Diagnostic {
	t := pkg.Info.TypeOf(rs.X)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return nil
	}
	c := &rangeChecker{pkg: pkg, locals: make(map[types.Object]bool)}
	// The key and value variables are per-iteration locals.
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			c.locals[c.pkg.Info.Defs[id]] = true
		}
	}
	if !c.safeStmt(rs.Body) {
		return []Diagnostic{{
			Pos: m.Fset.Position(rs.Pos()),
			Msg: "range over map with an order-sensitive body; iterate sorted keys instead",
		}}
	}
	// Key collection (x = append(x, k)) is safe only when the collected
	// slice is sorted later in the same function.
	var out []Diagnostic
	for _, v := range c.needSort {
		if !sortedLater(pkg, enclosingFunc(rs, parents), v) {
			out = append(out, Diagnostic{
				Pos: m.Fset.Position(rs.Pos()),
				Msg: fmt.Sprintf("range over map collects %q in iteration order but never sorts it", v.Name()),
			})
		}
	}
	return out
}

// rangeChecker classifies a map-range body as order-insensitive
// (commutative accumulation only) or order-sensitive.
type rangeChecker struct {
	pkg      *Package
	locals   map[types.Object]bool // variables scoped to the loop body
	needSort []*types.Var          // outer slices appended to in iteration order
}

func (c *rangeChecker) safeStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case nil:
		return true
	case *ast.BlockStmt:
		for _, st := range s.List {
			if !c.safeStmt(st) {
				return false
			}
		}
		return true
	case *ast.IncDecStmt:
		return c.safeExpr(s.X)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, id := range vs.Names {
				c.locals[c.pkg.Info.Defs[id]] = true
			}
			for _, v := range vs.Values {
				if !c.safeExpr(v) {
					return false
				}
			}
		}
		return true
	case *ast.AssignStmt:
		return c.safeAssign(s)
	case *ast.ExprStmt:
		// Only delete(m, k) may stand alone.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if b, ok := c.pkg.Info.Uses[rootIdent(call.Fun)].(*types.Builtin); ok && b.Name() == "delete" {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		return c.safeStmt(s.Init) && c.safeExpr(s.Cond) && c.safeStmt(s.Body) && c.safeStmt(s.Else)
	case *ast.ForStmt:
		return c.safeStmt(s.Init) && (s.Cond == nil || c.safeExpr(s.Cond)) && c.safeStmt(s.Post) && c.safeStmt(s.Body)
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := c.pkg.Info.Defs[id]; obj != nil {
					c.locals[obj] = true
				}
			}
		}
		return c.safeExpr(s.X) && c.safeStmt(s.Body)
	case *ast.SwitchStmt:
		if !c.safeStmt(s.Init) || (s.Tag != nil && !c.safeExpr(s.Tag)) {
			return false
		}
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				if !c.safeExpr(e) {
					return false
				}
			}
			for _, st := range clause.Body {
				if !c.safeStmt(st) {
					return false
				}
			}
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	default:
		// return, send, defer, go, select, labeled statements, ...
		return false
	}
}

// safeAssign classifies an assignment inside a map-range body.
func (c *rangeChecker) safeAssign(s *ast.AssignStmt) bool {
	for _, r := range s.Rhs {
		if !c.safeExpr(r) {
			return false
		}
	}
	switch s.Tok {
	case token.DEFINE:
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
				c.locals[c.pkg.Info.Defs[id]] = true
			}
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative accumulation: final value is order-independent.
		for _, l := range s.Lhs {
			if !c.safeExpr(l) {
				return false
			}
		}
		return true
	case token.ASSIGN:
		// x = append(x, elem) collecting into a function-local slice is
		// conditionally safe: the caller must find a later sort.
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if v := c.appendTarget(s.Lhs[0], s.Rhs[0]); v != nil {
				c.needSort = append(c.needSort, v)
				return true
			}
		}
		for _, l := range s.Lhs {
			if !c.safeAssignTarget(l) {
				return false
			}
		}
		return true
	default:
		// /=, %=, <<=, >>=, &^= are not commutative.
		return false
	}
}

// safeAssignTarget reports whether a plain `=` write is per-key or
// loop-local: blank, a loop-scoped variable, an index into a map, or a
// field reached through a loop-scoped variable (each iteration touches
// its own value).
func (c *rangeChecker) safeAssignTarget(l ast.Expr) bool {
	switch l := l.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return true
		}
		return c.locals[c.pkg.Info.Uses[l]]
	case *ast.SelectorExpr:
		if root, _ := rootOf(l.X); root != nil {
			return c.locals[c.pkg.Info.Uses[root]]
		}
	case *ast.IndexExpr:
		t := c.pkg.Info.TypeOf(l.X)
		if t == nil {
			return false
		}
		if _, ok := t.Underlying().(*types.Map); ok {
			return c.safeExpr(l.X) && c.safeExpr(l.Index)
		}
	case *ast.StarExpr:
		if root, _ := rootOf(l.X); root != nil {
			return c.locals[c.pkg.Info.Uses[root]]
		}
	}
	return false
}

// appendTarget recognizes `v = append(v, ...)` — v a function-local
// slice or a field of a function-local value — and returns the slice
// variable's object, or nil.
func (c *rangeChecker) appendTarget(lhs, rhs ast.Expr) *types.Var {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return nil
	}
	b, ok := c.pkg.Info.Uses[rootIdent(call.Fun)].(*types.Builtin)
	if !ok || b.Name() != "append" || len(call.Args) < 1 {
		return nil
	}
	v := c.sliceVar(lhs)
	if v == nil || v != c.sliceVar(call.Args[0]) {
		return nil
	}
	for _, a := range call.Args[1:] {
		if !c.safeExpr(a) {
			return nil
		}
	}
	return v
}

// sliceVar resolves an append target to its variable object: a plain
// function-local identifier, or the field of a selector rooted at a
// function-local identifier. Package-level targets return nil.
func (c *rangeChecker) sliceVar(e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.Ident:
		v, ok := c.pkg.Info.Uses[e].(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil || v.Parent() == c.pkg.Types.Scope() {
			return nil
		}
		return v
	case *ast.SelectorExpr:
		root, _ := rootOf(e.X)
		if root == nil {
			return nil
		}
		if rv, ok := c.pkg.Info.Uses[root].(*types.Var); !ok || isPackageScoped(rv) {
			return nil
		}
		v, ok := c.pkg.Info.Uses[e.Sel].(*types.Var)
		if !ok {
			return nil
		}
		return v
	}
	return nil
}

// rootOf returns the leftmost identifier of a selector/index/star
// chain and the step applied directly to it: the index, field or
// dereference expression whose operand is the root, or nil for a plain
// identifier. A chain that does not start at an identifier (a call
// result, say) yields nil, nil.
func rootOf(e ast.Expr) (root *ast.Ident, step ast.Expr) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, step
		case *ast.SelectorExpr:
			step, e = x, x.X
		case *ast.IndexExpr:
			step, e = x, x.X
		case *ast.StarExpr:
			step, e = x, x.X
		default:
			return nil, nil
		}
	}
}

// safeExpr reports whether evaluating the expression is free of
// side effects that could leak iteration order: no calls except pure
// builtins and type conversions, no channel operations, no closures.
func (c *rangeChecker) safeExpr(e ast.Expr) bool {
	safe := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := c.pkg.Info.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if b, ok := c.pkg.Info.Uses[rootIdent(n.Fun)].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap", "append", "make", "min", "max", "delete", "new", "copy":
					return true
				}
			}
			safe = false
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				safe = false
				return false
			}
		case *ast.FuncLit:
			safe = false
			return false
		}
		return true
	})
	return safe
}

// rootIdent returns the identifier at the root of a selector/index
// chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// enclosingFunc walks up the parent chain to the function containing n.
func enclosingFunc(n ast.Node, parents map[ast.Node]ast.Node) ast.Node {
	for n != nil {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return n
		}
		n = parents[n]
	}
	return nil
}

// sortedLater reports whether the enclosing function sorts the collected
// slice: any call to a function of package sort or slices that mentions
// the variable.
func sortedLater(pkg *Package, fn ast.Node, v *types.Var) bool {
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		f, ok := pkg.Info.Uses[rootIdent(call.Fun)].(*types.Func)
		if !ok || f.Pkg() == nil {
			return true
		}
		if p := f.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			mentions := false
			ast.Inspect(a, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pkg.Info.Uses[id] == v {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
