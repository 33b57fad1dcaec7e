package lint

// escape.go is a demand-driven, syntactic may-escape analysis: per
// function, which local variables may have their storage outlive the
// frame. The hotalloc rule uses it to
// separate real heap traffic from compiler-stack-allocatable noise — a
// composite literal bound to a local that never escapes is free, the
// same literal stored into a map is a per-iteration allocation.
//
// A variable may escape when any of the classic conduits applies:
//
//   - its address is taken (&v, anywhere);
//   - it appears in a return statement;
//   - it is stored through a heap pointer (x.f = v, x[i] = v, *p = v,
//     or assignment to a package-level variable);
//   - it is referenced inside a function literal other than the one
//     declaring it (closure capture);
//   - it is converted to an interface type, explicitly or by being
//     passed where a parameter is interface-typed (boxing);
//   - it is passed to a function that may retain it: a module function
//     whose summary says the parameter escapes (computed below to a
//     fixpoint over the callgraph), or any function through a
//     reference-carrying parameter type;
//   - it flows by plain assignment into a variable that escapes.
//
// The lattice is two-valued per variable (escapes / stays local) and
// the transfer is monotone, so the per-function propagation and the
// interprocedural parameter-summary iteration both converge. The
// analysis is deliberately conservative toward "escapes": the only
// consumers downgrade findings when a value provably stays local.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// escAnalysis is the module-wide escape result.
type escAnalysis struct {
	// vars maps each analyzed function to its may-escape variable set.
	vars map[*FuncNode]map[types.Object]bool
	// paramEsc maps each module function to a per-parameter escape
	// summary (true = the argument may be retained).
	paramEsc map[*types.Func][]bool
}

// escapes returns the module's escape analysis, computing it on first
// use.
func (m *Module) escapes() *escAnalysis {
	if m.esc == nil {
		m.esc = buildEscapes(m)
	}
	return m.esc
}

func buildEscapes(m *Module) *escAnalysis {
	g := m.CallGraph()
	nodes := g.sortedNodes()
	e := &escAnalysis{
		vars:     make(map[*FuncNode]map[types.Object]bool, len(nodes)),
		paramEsc: make(map[*types.Func][]bool, len(nodes)),
	}
	params := make(map[*FuncNode][]types.Object, len(nodes))
	callers := make(map[*FuncNode][]*FuncNode, len(nodes))
	for _, n := range nodes {
		params[n] = paramObjects(n)
		e.paramEsc[n.Fn] = make([]bool, len(params[n]))
		for _, callee := range n.Callees {
			callers[callee] = append(callers[callee], n)
		}
	}
	// Interprocedural fixpoint over a worklist: a function is recomputed
	// only when one of its callees' summaries changed, so total work is
	// one full pass plus one recompute per caller per summary-bit flip.
	// Summaries only ever flip false -> true, so the iteration
	// terminates.
	queued := make(map[*FuncNode]bool, len(nodes))
	work := make([]*FuncNode, len(nodes))
	copy(work, nodes)
	for _, n := range nodes {
		queued[n] = true
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		queued[n] = false
		set := escapeSet(n.Pkg, n.Decl, e)
		e.vars[n] = set
		summary := e.paramEsc[n.Fn]
		changed := false
		for i, p := range params[n] {
			if p != nil && set[p] && !summary[i] {
				summary[i] = true
				changed = true
			}
		}
		if !changed {
			continue
		}
		for _, c := range callers[n] {
			if !queued[c] {
				queued[c] = true
				work = append(work, c)
			}
		}
	}
	return e
}

// paramObjects lists a declaration's parameter objects in signature
// order (nil for unnamed parameters).
func paramObjects(n *FuncNode) []types.Object {
	var out []types.Object
	if n.Decl.Type.Params == nil {
		return nil
	}
	for _, f := range n.Decl.Type.Params.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			out = append(out, n.Pkg.Info.Defs[name])
		}
	}
	return out
}

// summaryFor returns the parameter-escape summary of a resolved module
// function, or nil for external/unknown callees.
func (e *escAnalysis) summaryFor(fn *types.Func) []bool {
	if e == nil {
		return nil
	}
	return e.paramEsc[fn]
}

// escapeSet computes the may-escape variable set of one declaration
// under the given (possibly still-converging) interprocedural
// summaries.
func escapeSet(pkg *Package, decl *ast.FuncDecl, e *escAnalysis) map[types.Object]bool {
	esc := make(map[types.Object]bool)
	// flows records v -> w edges in source order: v's value flows into w
	// by plain assignment, so if w escapes, v does too.
	type flowEdge struct{ from, to types.Object }
	var flows []flowEdge
	if decl.Body == nil {
		return esc
	}
	mark := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && !v.IsField() {
			esc[obj] = true
		}
	}
	markExpr := func(x ast.Expr) {
		ast.Inspect(x, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pkg.Info.Uses[id]; obj != nil {
					mark(obj)
				}
			}
			return true
		})
	}
	// markRefs marks only the identifiers whose values can carry a
	// reference out of the frame. Copying a flat struct into a slice
	// slot, a return value, or an interface box duplicates its bytes —
	// the local's own storage stays in the frame — so flat values never
	// escape through value contexts, only through &v and captures.
	markRefs := func(x ast.Expr) {
		ast.Inspect(x, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// Arguments of an ordinary call are charged by the call
				// rule (callee summaries); the call's own result carries no
				// reference to them, so len(vs) in a return does not make
				// vs escape. Conversions and append can alias their
				// operands in the result, so keep descending through those.
				if tv, ok := pkg.Info.Types[n.Fun]; ok && tv.IsType() {
					return true
				}
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
						return b.Name() == "append"
					}
				}
				return false
			case *ast.Ident:
				if obj := pkg.Info.Uses[n]; obj != nil && carriesReference(obj.Type()) {
					mark(obj)
				}
			}
			return true
		})
	}
	flow := func(from ast.Expr, to types.Object) {
		if to == nil {
			return
		}
		if id, ok := ast.Unparen(from).(*ast.Ident); ok {
			if v, ok := pkg.Info.Uses[id].(*types.Var); ok && !v.IsField() {
				flows = append(flows, flowEdge{v, to})
			}
		}
	}
	// declaringLit maps each locally declared object to the innermost
	// function literal declaring it (nil = the declaration body).
	declaringLit := make(map[types.Object]*ast.FuncLit)
	var walkDecls func(n ast.Node, lit *ast.FuncLit)
	walkDecls = func(root ast.Node, lit *ast.FuncLit) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n != root {
					walkDecls(n.Body, n)
					return false
				}
			case *ast.Ident:
				if obj := pkg.Info.Defs[n]; obj != nil {
					declaringLit[obj] = lit
				}
			}
			return true
		})
	}
	walkDecls(decl.Body, nil)

	var walk func(root ast.Node, lit *ast.FuncLit)
	walk = func(root ast.Node, lit *ast.FuncLit) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n != root {
					walk(n.Body, n)
					return false
				}
			case *ast.Ident:
				// Closure capture: a use inside a literal of a variable
				// declared outside it.
				if obj := pkg.Info.Uses[n]; obj != nil {
					if dl, local := declaringLit[obj]; local && dl != lit {
						mark(obj)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markExpr(rootOperand(n.X))
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					markRefs(r)
				}
			case *ast.SendStmt:
				markRefs(n.Value)
			case *ast.AssignStmt:
				escapeAssign(pkg, n, mark, markRefs, flow)
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						flow(n.Values[i], pkg.Info.Defs[name])
					}
				}
			case *ast.CompositeLit:
				// A reference stored into a composite literal lives as
				// long as the literal; charge pointer-carrying elements.
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					if carriesReference(pkg.Info.TypeOf(el)) {
						markRefs(el)
					}
				}
			case *ast.CallExpr:
				escapeCall(pkg, n, e, mark, markRefs, flow)
			}
			return true
		})
	}
	walk(decl.Body, nil)

	// Close the flow relation: escape propagates backward along
	// assignment edges.
	for changed := true; changed; {
		changed = false
		for _, f := range flows {
			if !esc[f.from] && esc[f.to] {
				mark(f.from)
				if esc[f.from] {
					changed = true
				}
			}
		}
	}
	return esc
}

// escapeAssign applies the store rules of one assignment.
func escapeAssign(pkg *Package, as *ast.AssignStmt, mark func(types.Object), markRefs func(ast.Expr), flow func(ast.Expr, types.Object)) {
	for i, l := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		switch lv := ast.Unparen(l).(type) {
		case *ast.Ident:
			obj := pkg.Info.Defs[lv]
			if obj == nil {
				obj = pkg.Info.Uses[lv]
			}
			if v, ok := obj.(*types.Var); ok && v.Parent() == pkg.Types.Scope() {
				// Store to a package-level variable.
				if rhs != nil {
					markRefs(rhs)
				}
				continue
			}
			if rhs != nil && len(as.Rhs) == len(as.Lhs) {
				flow(rhs, obj)
			}
		default:
			// x.f = v, x[i] = v, *p = v: stored through a heap pointer.
			if rhs != nil {
				markRefs(rhs)
			}
		}
	}
}

// escapeCall applies the call rules: builtins, interface conversions,
// module summaries, and reference-carrying parameters of external
// functions.
func escapeCall(pkg *Package, call *ast.CallExpr, e *escAnalysis, mark func(types.Object), markRefs func(ast.Expr), flow func(ast.Expr, types.Object)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pkg.Info.Uses[fun].(*types.Builtin); ok {
			// append aliases its operands into the (possibly reassigned)
			// destination; the assignment rule picks up the flow. The
			// other builtins retain nothing.
			_ = b
			return
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion T(v): boxing if T is an interface.
		if isInterfaceType(tv.Type) && len(call.Args) == 1 {
			markRefs(call.Args[0])
		}
		return
	}
	fn := resolvedFunc(pkg, call)
	var summary []bool
	if fn != nil {
		summary = e.summaryFor(fn)
	}
	sig := callSignature(pkg, call)
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i)
		switch {
		case summary != nil && i < len(summary):
			if summary[i] {
				markRefs(arg)
			}
			// A parameter the module callee provably does not retain
			// stays local even if reference-carrying.
			continue
		case pt == nil, isInterfaceType(pt), carriesReference(pt):
			markRefs(arg)
		}
	}
}

// callSignature resolves the signature of a call's callee, through
// either the resolved function or the expression type.
func callSignature(pkg *Package, call *ast.CallExpr) *types.Signature {
	if fn := resolvedFunc(pkg, call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			return sig
		}
	}
	if t := pkg.Info.TypeOf(call.Fun); t != nil {
		if sig, ok := t.Underlying().(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// paramTypeAt returns the declared type of the i-th argument slot,
// unwrapping the variadic tail.
func paramTypeAt(sig *types.Signature, i int) types.Type {
	if sig == nil || sig.Params() == nil {
		return nil
	}
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if sl, ok := last.Underlying().(*types.Slice); ok {
			return sl.Elem()
		}
		return last
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

// isInterfaceType reports whether t (behind aliases) is an interface.
func isInterfaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Interface)
	return ok
}

// carriesReference reports whether a value of type t contains a
// reference the callee could retain (pointer, slice, map, chan, func,
// string header aside — strings are immutable, retaining one keeps
// bytes alive but not the local's storage, so they don't count).
func carriesReference(t types.Type) bool {
	if t == nil {
		return true // unknown: conservative
	}
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesReference(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return carriesReference(u.Elem())
	case *types.Interface:
		return true
	}
	return false
}

// rootOperand peels selectors and indexes down to the base expression,
// so &v.f[i] charges v.
func rootOperand(x ast.Expr) ast.Expr {
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.SelectorExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		default:
			return x
		}
	}
}

// mayEscape reports whether the value produced by expr may escape the
// enclosing function: either the expression is used in an escaping
// context directly, or it is bound to a local variable in the
// function's may-escape set. A struct or array literal passed or
// returned by value stays in the frame: the callee, the appended slice
// or the caller's result slot gets a copy. parents must come from
// parentMap of the file containing expr.
func mayEscape(pkg *Package, n *FuncNode, e *escAnalysis, parents map[ast.Node]ast.Node, expr ast.Expr) bool {
	set := e.vars[n]
	node := ast.Node(expr)
	byValue := valueLit(pkg, expr)
	for {
		p, ok := parents[node]
		if !ok {
			return true // context unknown: conservative
		}
		switch p := p.(type) {
		case *ast.ParenExpr:
			node = p
			continue
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				// &T{...}: judge the pointer's binding instead.
				node = p
				byValue = false
				continue
			}
			return true
		case *ast.CallExpr:
			if !byValue {
				return true
			}
			if tv, ok := pkg.Info.Types[p.Fun]; ok && tv.IsType() {
				if isInterfaceType(tv.Type) {
					return true
				}
				node = p // a conversion passes the copy on
				continue
			}
			return !copiedArg(pkg, p, node)
		case *ast.AssignStmt:
			// Find which lhs the value binds to; plain ident binding
			// defers to the variable's escape fate.
			if len(p.Lhs) == len(p.Rhs) {
				for i, r := range p.Rhs {
					if ast.Unparen(r) == node || r == node {
						if id, ok := ast.Unparen(p.Lhs[i]).(*ast.Ident); ok {
							obj := pkg.Info.Defs[id]
							if obj == nil {
								obj = pkg.Info.Uses[id]
							}
							if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() != pkg.Types.Scope() {
								return set[obj]
							}
						}
						return true
					}
				}
			}
			return true
		case *ast.ValueSpec:
			for i, val := range p.Values {
				if val == node && i < len(p.Names) {
					obj := pkg.Info.Defs[p.Names[i]]
					if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() != pkg.Types.Scope() {
						return set[obj]
					}
				}
			}
			return true
		case *ast.ExprStmt:
			return false // result discarded
		case *ast.ReturnStmt:
			return !byValue || !copiedResult(pkg, parents, p, node)
		default:
			return true // argument, return, element, ...: escaping context
		}
	}
}

// valueLit reports a struct- or array-typed composite literal that
// nests no slice or map literal: copying it moves bytes, and every
// allocation inside it is a site of its own.
func valueLit(pkg *Package, e ast.Expr) bool {
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	flat := true
	ast.Inspect(lit, func(x ast.Node) bool {
		if c, ok := x.(*ast.CompositeLit); ok && flat {
			switch pkg.Info.TypeOf(c).Underlying().(type) {
			case *types.Struct, *types.Array:
			default:
				flat = false
			}
		}
		return flat
	})
	return flat
}

// copiedResult reports whether ret copies its result res: into a
// result slot of non-interface type of the innermost enclosing
// function.
func copiedResult(pkg *Package, parents map[ast.Node]ast.Node, ret *ast.ReturnStmt, res ast.Node) bool {
	var fn types.Type
	for n := parents[ret]; n != nil && fn == nil; n = parents[n] {
		switch f := n.(type) {
		case *ast.FuncLit:
			fn = pkg.Info.TypeOf(f)
		case *ast.FuncDecl:
			if obj := pkg.Info.Defs[f.Name]; obj != nil {
				fn = obj.Type()
			}
		}
	}
	sig, ok := fn.(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return false
	}
	for i, r := range ret.Results {
		if r == res {
			return !isInterfaceType(sig.Results().At(i).Type())
		}
	}
	return false
}

// copiedArg reports whether call copies its argument arg: into a
// non-interface parameter, or as an element of append outside the ...
// form.
func copiedArg(pkg *Package, call *ast.CallExpr, arg ast.Node) bool {
	for i, a := range call.Args {
		if a != arg {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
				return b.Name() == "append" && i > 0 && !call.Ellipsis.IsValid()
			}
		}
		pt := paramTypeAt(callSignature(pkg, call), i)
		return pt != nil && !isInterfaceType(pt)
	}
	return false
}
