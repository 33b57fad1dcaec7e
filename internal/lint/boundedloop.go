package lint

// boundedloop turns the paper's wait-freedom obligation into a lintable
// property. Herlihy's hierarchy and the paper's set-consensus
// characterization (R1) hold only for *wait-free* implementations:
// every operation must complete in a bounded number of its own steps,
// regardless of how other processes are scheduled. A stray unbounded
// retry loop on a decision path silently demotes an algorithm from
// wait-free to lock-free (or worse) and invalidates every theorem-shaped
// claim downstream.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// AnalyzerBoundedLoop returns the boundedloop rule. Every loop in a
// function reachable (via the conservative callgraph) from an object's
// decision path — Apply, Propose, WRN, Decide, Elect, Scan, Update
// methods under internal/ — must carry a recognized
// progress metric:
//
//   - a strictly bounded counter: for i := lo; i < hi; i++ with the
//     counter not reassigned in the body;
//   - a finite range: over a slice, array, map, string, or integer;
//   - a helping read: the loop can leave via return or break and its
//     body (transitively) steps a simulator object (sim.Ctx.Invoke),
//     the only way sim.Program's contract lets a process read shared
//     state, so each retry adopts other processes' progress (the
//     universal construction's helping loop, the AADGMS double collect);
//   - or a justified //detlint:allow boundedloop with the termination
//     argument.
//
// Calls into internal/sim are treated as single atomic steps (the
// model's granularity); the simulator's own machinery is not a decision
// path.
func AnalyzerBoundedLoop() *Analyzer {
	return &Analyzer{
		Name: "boundedloop",
		Doc:  "loops reachable from Apply/Propose/decision paths must carry a progress metric (wait-freedom)",
		Run:  runBoundedLoop,
	}
}

// decisionMethods are the method names that anchor a decision path.
var decisionMethods = map[string]bool{
	"Apply": true, "Propose": true, "WRN": true,
	"Decide": true, "Elect": true, "Scan": true, "Update": true,
}

func runBoundedLoop(m *Module) []Diagnostic {
	g := m.CallGraph()
	simPath := m.Path + "/internal/sim"
	skip := func(p *Package) bool { return p.Path == simPath }

	nodes := g.sortedNodes()
	var roots []*FuncNode
	for _, n := range nodes {
		if !m.InScope(n.Pkg, "internal") || n.Pkg.Path == simPath {
			continue
		}
		if n.Decl.Recv != nil && decisionMethods[n.Decl.Name.Name] {
			roots = append(roots, n)
		}
	}

	steps := objectSteppers(m, g)
	witness := g.ReachableWitness(roots, skip)
	var out []Diagnostic
	for _, n := range nodes {
		w, ok := witness[n]
		if !ok {
			continue
		}
		for _, body := range FuncBodies(n.Decl) {
			cfg := BuildCFG(body)
			for _, loop := range cfg.AllLoops {
				if why, bad := classifyLoop(m, g, steps, n.Pkg, loop); bad {
					via := ""
					if w != n {
						via = fmt.Sprintf(" (reachable from %s)", funcLabel(w))
					}
					out = append(out, Diagnostic{
						Pos: m.position(loop.Stmt),
						Msg: fmt.Sprintf("loop in %s%s has no recognized progress metric: %s; wait-freedom needs a bounded counter, a finite range, a helping read, or a justified allow",
							funcLabel(n), via, why),
					})
				}
			}
		}
	}
	return out
}

// funcLabel renders a node as pkgname.Func or pkgname.(Recv).Method.
func funcLabel(n *FuncNode) string {
	name := n.Pkg.Types.Name()
	if n.Decl.Recv != nil {
		return fmt.Sprintf("%s.(%s).%s", name, receiverTypeName(n.Decl), n.Decl.Name.Name)
	}
	return name + "." + n.Decl.Name.Name
}

// classifyLoop decides whether one loop carries a recognized progress
// metric; bad loops come back with the reason they fail.
func classifyLoop(m *Module, g *CallGraph, steps map[*FuncNode]bool, pkg *Package, loop *Loop) (string, bool) {
	switch s := loop.Stmt.(type) {
	case *ast.RangeStmt:
		t := pkg.Info.TypeOf(s.X)
		if t == nil {
			return "", false // type error; the loader would have failed
		}
		switch u := t.Underlying().(type) {
		case *types.Slice, *types.Array, *types.Map, *types.Pointer:
			return "", false
		case *types.Basic:
			return "", false // string or integer range: finite
		case *types.Chan:
			if helpingLoop(m, g, steps, pkg, loop, s.Body) {
				return "", false
			}
			return "it ranges over a channel (unbounded source)", true
		case *types.Signature:
			return "it ranges over an iterator function (unbounded source)", true
		default:
			_ = u
			return "it ranges over an unrecognized source", true
		}
	case *ast.ForStmt:
		if boundedCounterLoop(pkg, s) {
			return "", false
		}
		if helpingLoop(m, g, steps, pkg, loop, s.Body) {
			return "", false
		}
		switch {
		case s.Cond == nil && !loop.HasReturn && !loop.HasBreak:
			return "it can neither exit (no condition, return, or break) nor observe other processes' progress", true
		case !loop.HasReturn && !loop.HasBreak:
			return "it spins until shared state changes without adopting another process's result (await, not helping)", true
		default:
			return "it retries without a bounded counter and without a simulator object step (no helping read)", true
		}
	}
	return "", false
}

// boundedCounterLoop recognizes the strictly bounded counter shape:
// for i := lo; <cond involving i>; i++/i--/i+=k { ... i never written }.
func boundedCounterLoop(pkg *Package, s *ast.ForStmt) bool {
	if s.Init == nil || s.Cond == nil || s.Post == nil {
		return false
	}
	ctr := postCounter(pkg, s.Post)
	if ctr == nil {
		return false
	}
	if !initializes(pkg, s.Init, ctr) {
		return false
	}
	if !condCompares(pkg, s.Cond, ctr) {
		return false
	}
	return !bodyWrites(pkg, s.Body, ctr)
}

// postCounter returns the variable a post statement strictly advances.
func postCounter(pkg *Package, post ast.Stmt) types.Object {
	switch p := post.(type) {
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(p.X).(*ast.Ident); ok {
			return pkg.Info.Uses[id]
		}
	case *ast.AssignStmt:
		if len(p.Lhs) == 1 && (p.Tok == token.ADD_ASSIGN || p.Tok == token.SUB_ASSIGN) {
			if id, ok := ast.Unparen(p.Lhs[0]).(*ast.Ident); ok {
				return pkg.Info.Uses[id]
			}
		}
	}
	return nil
}

// initializes reports whether the init statement defines or assigns ctr.
func initializes(pkg *Package, init ast.Stmt, ctr types.Object) bool {
	as, ok := init.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		if pkg.Info.Defs[id] == ctr || pkg.Info.Uses[id] == ctr {
			return true
		}
	}
	return false
}

// condCompares reports whether the condition contains an ordered
// comparison involving ctr (possibly inside a && / || composition).
func condCompares(pkg *Package, cond ast.Expr, ctr types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
			if mentionsObj(pkg, be.X, ctr) || mentionsObj(pkg, be.Y, ctr) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// bodyWrites reports an assignment, inc/dec, or address-of targeting ctr
// inside the loop body (any of which voids the bounded-counter shape).
func bodyWrites(pkg *Package, body *ast.BlockStmt, ctr types.Object) bool {
	wrote := false
	ast.Inspect(body, func(n ast.Node) bool {
		if wrote {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok && pkg.Info.Uses[id] == ctr {
					wrote = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && pkg.Info.Uses[id] == ctr {
				wrote = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && mentionsObj(pkg, n.X, ctr) {
				wrote = true
			}
		}
		return !wrote
	})
	return wrote
}

// mentionsObj reports whether the expression references the object.
func mentionsObj(pkg *Package, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// helpingLoop recognizes the helping pattern: the loop can finish its
// operation from inside the body (return or break), and the body steps
// a simulator object each iteration, directly or through a module
// callee in steps, so each retry folds in other processes' progress
// rather than burning steps blind.
func helpingLoop(m *Module, g *CallGraph, steps map[*FuncNode]bool, pkg *Package, loop *Loop, body *ast.BlockStmt) bool {
	if !loop.HasReturn && !loop.HasBreak {
		return false
	}
	if invokesObject(m, pkg, body) {
		return true
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			found = slices.ContainsFunc(g.calleesOf(pkg, call), func(c *FuncNode) bool { return steps[c] })
		}
		return !found
	})
	return found
}

// objectSteppers runs the helping-read summary to a fixed point: a
// function steps a simulator object if its body calls sim.Ctx.Invoke or
// any callee steps one.
func objectSteppers(m *Module, g *CallGraph) map[*FuncNode]bool {
	nodes := g.sortedNodes()
	steps := make(map[*FuncNode]bool, len(nodes))
	for _, n := range nodes {
		steps[n] = invokesObject(m, n.Pkg, n.Decl.Body)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if !steps[n] && slices.ContainsFunc(n.Callees, func(c *FuncNode) bool { return steps[c] }) {
				steps[n] = true
				changed = true
			}
		}
	}
	return steps
}

// invokesObject reports a simulator step, a sim.Ctx.Invoke call, in the
// AST subtree.
func invokesObject(m *Module, pkg *Package, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok && !found {
			found = isMethod(resolvedFunc(pkg, call), m.Path+"/internal/sim", "Invoke")
		}
		return !found
	})
	return found
}
