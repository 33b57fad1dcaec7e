package lint

// callgraph.go builds a conservative, module-internal callgraph on top
// of the typed load. Static calls (package functions, methods on
// concrete receivers, generic instantiations) resolve exactly through
// types.Info. Calls through an interface method conservatively fan out
// to every module type implementing that interface — an
// over-approximation, never a miss. Two dynamic forms are out of scope
// and documented as such: calls through plain function values (including
// struct fields of function type) and calls of function literals bound
// to variables; the rules that ride on the graph treat those as
// side-effect-free, which keeps them conservative in the direction that
// matters for their scopes (no false "reachable" edges are needed for
// soundness of a *lint*, and the repository's decision paths dispatch
// through named functions and interfaces only).

import (
	"go/ast"
	"go/types"
	"sort"
)

// FuncNode is one declared function or method of the module.
type FuncNode struct {
	// Fn is the function's type-checker object.
	Fn *types.Func
	// Pkg is the package declaring the function.
	Pkg *Package
	// Decl is the function's declaration (with body).
	Decl *ast.FuncDecl
	// Callees are the module functions this function may call, in
	// deterministic (position) order, deduplicated.
	Callees []*FuncNode

	calleeSet map[*types.Func]bool
}

// CallGraph is the module's conservative callgraph.
type CallGraph struct {
	// Nodes maps every declared module function to its node.
	Nodes map[*types.Func]*FuncNode
	// namedTypes lists every non-interface named type declared in the
	// module, in declaration order, for interface fan-out. Enumerating
	// types rather than methods-by-name resolves promoted methods: a
	// struct that satisfies an interface through an embedded field has
	// no method declaration of its own to index.
	namedTypes []*types.Named
}

// CallGraph returns the module's callgraph, building it on first use.
func (m *Module) CallGraph() *CallGraph {
	if m.cg == nil {
		m.cg = buildCallGraph(m)
	}
	return m.cg
}

func buildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*FuncNode)}
	// Pass 1: one node per declared function with a body, plus the
	// module's named types for interface fan-out.
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Pkg: pkg, Decl: fd, calleeSet: make(map[*types.Func]bool)}
				g.Nodes[fn] = node
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			g.namedTypes = append(g.namedTypes, named)
		}
	}
	// Pass 2: edges.
	for _, n := range g.sortedNodes() {
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range g.calleesOf(n.Pkg, call) {
				if !n.calleeSet[callee.Fn] {
					n.calleeSet[callee.Fn] = true
					n.Callees = append(n.Callees, callee)
				}
			}
			return true
		})
		sort.Slice(n.Callees, func(i, j int) bool {
			return n.Callees[i].Fn.Pos() < n.Callees[j].Fn.Pos()
		})
	}
	return g
}

// sortedNodes returns every node in deterministic declaration order.
func (g *CallGraph) sortedNodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fn.Pos() < out[j].Fn.Pos() })
	return out
}

// NodeOf returns the node of a declared module function, or nil.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode { return g.Nodes[fn] }

// calleesOf resolves one call site to its possible module callees.
func (g *CallGraph) calleesOf(pkg *Package, call *ast.CallExpr) []*FuncNode {
	if fn := resolvedFunc(pkg, call); fn != nil {
		if n, ok := g.Nodes[fn]; ok {
			return []*FuncNode{n}
		}
		// A method selected on an interface resolves to the interface's
		// method object, which has no declaration node; fan out below.
		if iface, name := receiverInterface(pkg, call); iface != nil {
			return g.implementersOf(iface, name)
		}
		return nil // external (stdlib) function
	}
	if iface, name := receiverInterface(pkg, call); iface != nil {
		return g.implementersOf(iface, name)
	}
	return nil
}

// implementersOf returns the declared module method each implementing
// type dispatches name to. Enumerating the module's named types and
// resolving through LookupFieldOrMethod handles promotion: when a type
// satisfies iface only because an embedded field provides some of the
// methods, the promoted method's declaration (on the embedded type) is
// the node the call can reach.
func (g *CallGraph) implementersOf(iface *types.Interface, name string) []*FuncNode {
	var out []*FuncNode
	seen := make(map[*FuncNode]bool)
	for _, named := range g.namedTypes {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		fn := lookupConcreteMethod(named, name)
		if fn == nil {
			continue
		}
		n, ok := g.Nodes[fn]
		if !ok || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	return out
}

// ReachableWitness returns the nodes reachable from the roots, following
// edges except into packages for which skip returns true (the roots
// themselves are always included; skip may be nil). Each reached node
// maps to the root it was first discovered from (roots map to
// themselves), so callers test membership in the map and attribute
// findings through it. The BFS visits roots and callees in
// deterministic order, so the witness assignment — and every
// diagnostic built from it — is stable across runs.
func (g *CallGraph) ReachableWitness(roots []*FuncNode, skip func(*Package) bool) map[*FuncNode]*FuncNode {
	witness := make(map[*FuncNode]*FuncNode)
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := witness[r]; !ok {
			witness[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callees {
			if _, ok := witness[c]; ok || (skip != nil && skip(c.Pkg)) {
				continue
			}
			witness[c] = witness[n]
			queue = append(queue, c)
		}
	}
	return witness
}
