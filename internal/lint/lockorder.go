package lint

// lockorder proves the module's mutexes cannot wedge. It builds the
// module-wide lock-acquisition-order graph — an edge A→B whenever some
// function acquires B while the must-hold lockset says A is held,
// directly or through any callee — and reports two shapes of trouble:
//
//   - a cycle in the order graph: two concurrent callers can each hold
//     one lock of the cycle and block forever on the next;
//   - a re-acquisition of a lock already held (directly, or by calling
//     a function that takes it): sync.Mutex is not reentrant, so the
//     goroutine deadlocks against itself.
//
// Lock identity is instance-abstracted (the mutex's declaring field or
// variable, see lockset.go), so the graph is small and the verdicts are
// about code shape, not heap shape. Function literals are analyzed as
// their own bodies with an empty entry lockset; locks they acquire
// participate in the graph, but are not charged to synchronous callers
// of the enclosing function.

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerLockOrder returns the lockorder rule.
func AnalyzerLockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "lock-acquisition-order cycles and non-reentrant re-acquisition, module-wide",
		Run:  runLockOrder,
	}
}

// lockEdge is one held→acquired observation with its earliest witness.
type lockEdge struct {
	from, to *types.Var
	fn       string    // label of the function acquiring `to`
	pos      token.Pos // witness position
}

func runLockOrder(m *Module) []Diagnostic {
	g := m.CallGraph()
	var out []Diagnostic

	// Per-function lock facts for every declared body, plus separate
	// facts for nested literal bodies (empty entry set).
	nodes := g.sortedNodes()
	facts := make(map[*FuncNode]*LockFacts, len(nodes))
	extra := make(map[*FuncNode][]*LockFacts)
	for _, n := range nodes {
		bodies := FuncBodies(n.Decl)
		facts[n] = ComputeLockFacts(n.Pkg, BuildCFG(bodies[0]))
		for _, body := range bodies[1:] {
			extra[n] = append(extra[n], ComputeLockFacts(n.Pkg, BuildCFG(body)))
		}
	}

	// Transitive acquires: every lock a function may take, directly or
	// through module callees, to a fixed point. Literal bodies are
	// excluded — a spawned goroutine's acquisitions are not synchronous
	// effects of the caller.
	trans := make(map[*FuncNode]map[*types.Var]bool, len(nodes))
	for _, n := range nodes {
		set := make(map[*types.Var]bool)
		for _, a := range facts[n].Acquires {
			set[a.Lock] = true
		}
		trans[n] = set
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			for _, c := range n.Callees {
				for _, l := range sortedLocks(trans[c]) {
					if !trans[n][l] {
						trans[n][l] = true
						changed = true
					}
				}
			}
		}
	}

	// Edges and re-acquisitions.
	edges := make(map[[2]*types.Var]*lockEdge)
	addEdge := func(from, to *types.Var, fn string, pos token.Pos) {
		key := [2]*types.Var{from, to}
		if e, ok := edges[key]; ok {
			if pos < e.pos {
				e.fn, e.pos = fn, pos
			}
			return
		}
		edges[key] = &lockEdge{from: from, to: to, fn: fn, pos: pos}
	}
	for _, n := range nodes {
		label := funcLabel(n)
		all := append([]*LockFacts{facts[n]}, extra[n]...)
		for _, lf := range all {
			for _, a := range lf.Acquires {
				if hasLock(a.Held, a.Lock) {
					out = append(out, Diagnostic{
						Pos: m.Fset.Position(a.Pos), Rule: "lockorder",
						Msg: fmt.Sprintf("%s is acquired in %s while already held; sync mutexes are not reentrant, so the goroutine deadlocks against itself",
							lockLabel(a.Lock), label),
					})
					continue
				}
				for _, h := range a.Held {
					addEdge(h, a.Lock, label, a.Pos)
				}
			}
			for _, lc := range lf.Calls {
				if len(lc.Held) == 0 {
					continue
				}
				for _, callee := range g.calleesOf(n.Pkg, lc.Call) {
					for _, l := range sortedLocks(trans[callee]) {
						if hasLock(lc.Held, l) {
							out = append(out, Diagnostic{
								Pos: m.Fset.Position(lc.Call.Pos()), Rule: "lockorder",
								Msg: fmt.Sprintf("%s calls %s, which acquires %s while %s already holds it; sync mutexes are not reentrant, so the goroutine deadlocks against itself",
									label, funcLabel(callee), lockLabel(l), label),
							})
							continue
						}
						for _, h := range lc.Held {
							addEdge(h, l, label, lc.Call.Pos())
						}
					}
				}
			}
		}
	}

	return append(out, lockCycles(m, edges)...)
}

// lockCycles finds strongly connected components of the order graph and
// reports each component of two or more locks once, anchored at its
// earliest witness.
func lockCycles(m *Module, edges map[[2]*types.Var]*lockEdge) []Diagnostic {
	// Deterministic node and edge orders.
	sorted := make([]*lockEdge, 0, len(edges))
	for _, e := range edges {
		sorted = append(sorted, e)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].pos < sorted[j].pos })
	var locks []*types.Var
	seen := make(map[*types.Var]bool)
	adj := make(map[*types.Var][]*types.Var)
	for _, e := range sorted {
		for _, v := range [...]*types.Var{e.from, e.to} {
			if !seen[v] {
				seen[v] = true
				locks = append(locks, v)
			}
		}
		adj[e.from] = append(adj[e.from], e.to)
	}

	// Tarjan's SCC.
	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	var stack []*types.Var
	var sccs [][]*types.Var
	next := 0
	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range locks {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}

	var out []Diagnostic
	for _, scc := range sccs {
		inSCC := make(map[*types.Var]bool, len(scc))
		for _, v := range scc {
			inSCC[v] = true
		}
		var witnesses []*lockEdge
		for _, e := range sorted {
			if inSCC[e.from] && inSCC[e.to] {
				witnesses = append(witnesses, e)
			}
		}
		labels := make([]string, 0, len(scc))
		for _, v := range scc {
			labels = append(labels, lockLabel(v))
		}
		sort.Strings(labels)
		parts := make([]string, 0, len(witnesses))
		for _, e := range witnesses {
			parts = append(parts, fmt.Sprintf("%s acquires %s while holding %s",
				e.fn, lockLabel(e.to), lockLabel(e.from)))
		}
		sort.Strings(parts)
		out = append(out, Diagnostic{
			Pos: m.Fset.Position(witnesses[0].pos), Rule: "lockorder",
			Msg: fmt.Sprintf("lock-order cycle among %s: %s; two concurrent callers can deadlock",
				strings.Join(labels, ", "), strings.Join(parts, "; ")),
		})
	}
	return out
}

// sortedLocks renders a lock set in deterministic order.
func sortedLocks(set map[*types.Var]bool) []*types.Var {
	out := make([]*types.Var, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return lockLess(out[i], out[j]) })
	return out
}

// lockLabel renders a lock variable for diagnostics: the declaring
// struct field (pkg.Type.field) or the plain variable name.
func lockLabel(v *types.Var) string {
	if v.IsField() {
		return ownerTypeName(v) + "." + v.Name()
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}
