package lint

// closure.go is the capture/flow layer the parallel-determinism rules
// (slotdiscipline, mergeorder, sharedsink, seedflow) share: it finds the
// worker closures handed to par.ForEach and to go statements, computes
// which enclosing-frame variables each closure captures and writes, and
// proves — over the literal's own SSA-lite value graph (BuildLitSSA) —
// that a subscript expression derives from the worker's index. The
// contract being enforced is the one internal/par documents in prose:
// each index must touch only its own slot, and everything shared must go
// through sync/atomic or a mutex.
//
// "Derives from the index" is a two-part judgment on an expression:
// every identifier leaf must be clean (the index parameter, a value
// SSA-traced back to it, or a captured loop-invariant read), and at
// least one leaf must actually mention the index. Both halves matter:
// slots[0] is clean but mentions no index (all workers collide), and
// slots[next()] mentions nothing provable. φ-nodes require every
// incoming path to derive — an index on one path and a constant on the
// other is a collision on the other path.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// parWorker is one par.ForEach(n, workers, body) call site whose body is
// a function literal.
type parWorker struct {
	// call is the ForEach call expression.
	call *ast.CallExpr
	// lit is the worker body literal.
	lit *ast.FuncLit
	// idx is the literal's index parameter.
	idx *types.Var
	// node is the declared function containing the call.
	node *FuncNode
}

// parWorkers finds the par.ForEach worker literals of one declared
// function, in source order.
func parWorkers(m *Module, n *FuncNode) []parWorker {
	var out []parWorker
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := resolvedFunc(n.Pkg, call)
		if !isFunc(fn, m.Path+"/internal/par", "ForEach") || len(call.Args) != 3 {
			return true
		}
		lit, ok := ast.Unparen(call.Args[2]).(*ast.FuncLit)
		if !ok {
			return true
		}
		idx := litParam(n.Pkg, lit, 0)
		if idx == nil {
			return true
		}
		out = append(out, parWorker{call: call, lit: lit, idx: idx, node: n})
		return true
	})
	return out
}

// litParam returns the i-th parameter object of a function literal, or
// nil (unnamed or missing).
func litParam(pkg *Package, lit *ast.FuncLit, i int) *types.Var {
	if lit.Type.Params == nil {
		return nil
	}
	idx := 0
	for _, f := range lit.Type.Params.List {
		for _, name := range f.Names {
			if idx == i {
				v, _ := pkg.Info.Defs[name].(*types.Var)
				return v
			}
			idx++
		}
		if len(f.Names) == 0 {
			idx++
		}
	}
	return nil
}

// litLocals returns every object declared inside the literal (parameters
// included, nested literals included).
func litLocals(pkg *Package, lit *ast.FuncLit) map[types.Object]bool {
	locals := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pkg.Info.Defs[id]; obj != nil {
				locals[obj] = true
			}
		}
		return true
	})
	return locals
}

// capturedVars returns the variables the literal captures: every
// variable used inside it but declared outside it — enclosing-frame
// locals, parameters of the enclosing function, and package-level state.
// Struct fields are excluded (the capture is of the base variable).
func capturedVars(pkg *Package, lit *ast.FuncLit) map[*types.Var]bool {
	locals := litLocals(pkg, lit)
	captured := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || locals[v] {
			return true
		}
		captured[v] = true
		return true
	})
	return captured
}

// capturedWrite is one write statement inside a worker literal whose
// target is (or may alias) captured state.
type capturedWrite struct {
	// stmt is the assignment or inc/dec statement.
	stmt ast.Stmt
	// lhs is the written expression.
	lhs ast.Expr
	// root is the leftmost identifier of the target path.
	root *ast.Ident
	// rootVar is root's object.
	rootVar *types.Var
}

// litWrites collects every assignment target inside the literal (nested
// literals included) whose path roots at an identifier, in source order.
func litWrites(pkg *Package, lit *ast.FuncLit) []capturedWrite {
	var out []capturedWrite
	add := func(st ast.Stmt, l ast.Expr) {
		root := rootOf(l)
		if root == nil || root.Name == "_" {
			return
		}
		v, ok := pkg.Info.Uses[root].(*types.Var)
		if !ok {
			if v, ok = pkg.Info.Defs[root].(*types.Var); !ok {
				return
			}
		}
		out = append(out, capturedWrite{stmt: st, lhs: l, root: root, rootVar: v})
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				add(n, l)
			}
		case *ast.IncDecStmt:
			add(n, n.X)
		}
		return true
	})
	return out
}

// idxDeriver proves subscript expressions derive from a worker's index
// parameter through the literal's SSA-lite value graph.
type idxDeriver struct {
	pkg *Package
	ssa *FuncSSA
	// idx is the index parameter.
	idx *types.Var
	// extra holds additional variables treated as index-equivalent: an
	// atomic-claim result (r := int(next.Add(1)-1)) or a per-iteration
	// loop variable for a go-statement worker.
	extra map[*types.Var]bool
	// activePhis breaks loop-carried φ cycles.
	activePhis map[*PhiVal]bool
}

func newIdxDeriver(pkg *Package, ssa *FuncSSA, idx *types.Var) *idxDeriver {
	return &idxDeriver{
		pkg: pkg, ssa: ssa, idx: idx,
		extra:      make(map[*types.Var]bool),
		activePhis: make(map[*PhiVal]bool),
	}
}

// derived reports whether the expression provably derives from the
// index: every leaf clean, at least one leaf mentioning the index.
func (d *idxDeriver) derived(e ast.Expr, at ast.Stmt) bool {
	mention, ok := d.expr(e, at)
	return mention && ok
}

// expr judges one expression; mention reports an index leaf, ok reports
// that every leaf is clean (index-derived or loop-invariant).
func (d *idxDeriver) expr(e ast.Expr, at ast.Stmt) (mention, ok bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return false, true
	case *ast.Ident:
		return d.ident(e, at)
	case *ast.BinaryExpr:
		m1, ok1 := d.expr(e.X, at)
		m2, ok2 := d.expr(e.Y, at)
		return m1 || m2, ok1 && ok2
	case *ast.UnaryExpr:
		if e.Op == token.ARROW || e.Op == token.AND {
			return false, false // receives and addresses are not subscripts
		}
		return d.expr(e.X, at)
	case *ast.CallExpr:
		return d.call(e, at)
	case *ast.IndexExpr:
		// A lookup-table hop (perm[i]) derives iff both the table read
		// and the inner subscript are clean; the mention comes from
		// either side.
		m1, ok1 := d.expr(e.X, at)
		m2, ok2 := d.expr(e.Index, at)
		return m1 || m2, ok1 && ok2
	case *ast.SelectorExpr:
		// A field read (cfg.off): clean if the base is, mentions nothing.
		if f := selectedField(d.pkg, e); f != nil {
			_, ok := d.expr(e.X, at)
			return false, ok
		}
		// Qualified package constant/var read.
		if v, ok := d.pkg.Info.Uses[e.Sel].(*types.Var); ok {
			return false, !mutableShared(v)
		}
		if _, isConst := d.pkg.Info.Uses[e.Sel].(*types.Const); isConst {
			return false, true
		}
		return false, false
	}
	// Constant expressions of any other shape are clean.
	if tv, found := d.pkg.Info.Types[e]; found && tv.Value != nil {
		return false, true
	}
	return false, false
}

// ident judges one identifier leaf.
func (d *idxDeriver) ident(id *ast.Ident, at ast.Stmt) (mention, ok bool) {
	obj := d.pkg.Info.Uses[id]
	if obj == nil {
		obj = d.pkg.Info.Defs[id]
	}
	if _, isConst := obj.(*types.Const); isConst {
		return false, true
	}
	v, isVar := obj.(*types.Var)
	if !isVar {
		return false, false
	}
	if v == d.idx || d.extra[v] {
		return true, true
	}
	if v.IsField() {
		return false, true
	}
	// A variable with a definition inside the literal: trace its binding.
	// A captured variable has no reaching definition here, so BindingAt
	// answers OpaqueVal and the read counts as a clean loop-invariant
	// leaf — if a worker writes it, slotdiscipline flags that write.
	return d.value(d.ssa.BindingAt(at, v))
}

// call judges a call leaf inside a subscript: conversions and the pure
// builtins pass values through; anything else is unprovable.
func (d *idxDeriver) call(call *ast.CallExpr, at ast.Stmt) (mention, ok bool) {
	if tv, found := d.pkg.Info.Types[call.Fun]; found && tv.IsType() && len(call.Args) == 1 {
		return d.expr(call.Args[0], at)
	}
	if id, found := ast.Unparen(call.Fun).(*ast.Ident); found {
		if b, isB := d.pkg.Info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "len", "cap":
				_, ok := d.expr(call.Args[0], at)
				return false, ok
			case "min", "max":
				mention, ok = false, true
				for _, a := range call.Args {
					m, o := d.expr(a, at)
					mention, ok = mention || m, ok && o
				}
				return mention, ok
			}
		}
	}
	return false, false
}

// value judges an SSA-lite value.
func (d *idxDeriver) value(v Value) (mention, ok bool) {
	switch v := v.(type) {
	case ParamVal:
		return v.V == d.idx || d.extra[v.V], true
	case ExprVal:
		return d.expr(v.E, v.At)
	case *PhiVal:
		if d.activePhis[v] {
			return true, true // neutral under the all-paths conjunction
		}
		d.activePhis[v] = true
		defer delete(d.activePhis, v)
		mention, ok = true, true
		for _, op := range v.Ops {
			m, o := d.value(op)
			mention, ok = mention && m, ok && o
		}
		return mention, ok
	case RangeVal:
		// An inner loop's own induction variable never derives from the
		// worker index, but reading it is clean.
		return false, true
	case MergeVal:
		mention, ok = false, true
		for _, op := range v.Ops {
			m, o := d.value(op)
			mention, ok = mention || m, ok && o
		}
		return mention, ok
	case OpaqueVal:
		return false, true // captured loop-invariant read (or a tracking gap)
	}
	return false, false
}

// mutableShared reports whether a package-level variable read is unsafe
// as a subscript leaf: mutable package state can change between workers.
// Package-level constants arrive as *types.Const and never reach here.
func mutableShared(v *types.Var) bool {
	return isPackageScoped(v)
}

// slotClass classifies what a local variable's binding aliases.
type slotClass int

const (
	// aliasLocal: frame-local storage only (composite literal, call
	// result, address of a local) — writes through it touch nothing
	// captured.
	aliasLocal slotClass = iota
	// aliasSlot: an index-derived slot of a captured container (&slots[i],
	// rows[i]) — writes through it stay inside the worker's own slot.
	aliasSlot
	// aliasShared: captured storage without an index-derived subscript.
	aliasShared
)

// classifyAlias judges what the binding of a literal-local pointer,
// slice, or struct aliases, given the capture set.
func (d *idxDeriver) classifyAlias(v Value, captured map[*types.Var]bool) slotClass {
	switch v := v.(type) {
	case ExprVal:
		return d.classifyAliasExpr(v.E, v.At, captured)
	case *PhiVal:
		if d.activePhis[v] {
			return aliasLocal
		}
		d.activePhis[v] = true
		defer delete(d.activePhis, v)
		worst := aliasLocal
		for _, op := range v.Ops {
			if c := d.classifyAlias(op, captured); c > worst {
				worst = c
			}
		}
		return worst
	case RangeVal:
		// A per-element alias from ranging over a captured container
		// (for _, row := range rows) is shared: the element is another
		// index's slot on all but one iteration.
		if root := rootOf(v.S.X); root != nil {
			if rv, ok := d.pkg.Info.Uses[root].(*types.Var); ok && captured[rv] {
				return aliasShared
			}
		}
		return aliasLocal
	case MergeVal:
		worst := aliasLocal
		for _, op := range v.Ops {
			if c := d.classifyAlias(op, captured); c > worst {
				worst = c
			}
		}
		return worst
	}
	return aliasLocal // params, opaque: nothing provably captured
}

// classifyAliasExpr judges an aliasing expression.
func (d *idxDeriver) classifyAliasExpr(e ast.Expr, at ast.Stmt, captured map[*types.Var]bool) slotClass {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return d.classifyAliasExpr(e.X, at, captured)
		}
	case *ast.IndexExpr:
		if root := rootOf(e.X); root != nil {
			if rv, ok := d.pkg.Info.Uses[root].(*types.Var); ok && captured[rv] {
				if d.derived(e.Index, at) {
					return aliasSlot
				}
				return aliasShared
			}
		}
		return d.classifyAliasExpr(e.X, at, captured)
	case *ast.SelectorExpr:
		return d.classifyAliasExpr(e.X, at, captured)
	case *ast.SliceExpr:
		return d.classifyAliasExpr(e.X, at, captured)
	case *ast.Ident:
		v, ok := d.pkg.Info.Uses[e].(*types.Var)
		if !ok {
			return aliasLocal
		}
		if captured[v] {
			if carriesReference(v.Type()) {
				return aliasShared
			}
			return aliasLocal
		}
		// A chain through another local: classify its binding.
		return d.classifyAlias(d.ssa.BindingAt(at, v), captured)
	}
	return aliasLocal
}

// atomicClaimVars finds literal-locals bound to an atomic counter claim —
// r := int(next.Add(1) - 1) — which hands out each index exactly once,
// so subscripts through r are slot-shaped (a pool claiming work items
// by counter). The proof is that the value traces to a sync/atomic Add
// method call result through arithmetic and conversions only.
func atomicClaimVars(pkg *Package, lit *ast.FuncLit) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if !atomicClaimExpr(pkg, as.Rhs[0]) {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// atomicClaimExpr reports whether the expression is an atomic Add result
// adjusted by constants/conversions only.
func atomicClaimExpr(pkg *Package, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if tv, ok := pkg.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return atomicClaimExpr(pkg, e.Args[0])
		}
		fn := resolvedFunc(pkg, e)
		return isMethod(fn, "sync/atomic", "Add")
	case *ast.BinaryExpr:
		lc := pkg.Info.Types[e.X].Value != nil
		rc := pkg.Info.Types[e.Y].Value != nil
		if lc == rc {
			return false // need exactly one claim side and one constant side
		}
		if lc {
			return atomicClaimExpr(pkg, e.Y)
		}
		return atomicClaimExpr(pkg, e.X)
	}
	return false
}

// atomicCall reports whether a call is a sync/atomic operation (typed
// method or legacy package function).
func atomicCall(pkg *Package, call *ast.CallExpr) bool {
	fn := resolvedFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic"
}
