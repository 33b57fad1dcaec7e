package lint

// hotpath.go computes loop-depth-weighted reachability from the
// module's hot entrypoints: the exhaustive engines (Explore*,
// AnalyzeValency*, CheckIndistinguishability) and any function
// annotated //detlint:hot (the chaos sweep drivers). The exhaustive
// engines visit state spaces whose size is exponential in the
// configuration, so a single allocation at loop depth d under a hot
// root executes Θ(n^d) times per run — BENCH_5 measured the E4
// explore at 4.9M allocs/op before the modelcheck triage. The hotalloc
// and boxing rules and the -hotreport ranking all ride on the depth
// map computed here.
//
// Depth is a static over-approximation: the depth of a function is the
// minimum over all hot call chains of the sum of the loop depths of
// the call sites along the chain, with hot roots at depth zero. A call
// at loop depth 2 inside a function at depth 1 puts the callee at
// depth ≤ 3. Depths are capped at maxHotDepth so recursion through a
// loop converges. A function that calls itself from inside a loop is a
// loop of its own: the depth-first searches of the model checker visit
// one tree node per call, so every call such a function makes is
// charged one more loop level than its site has. Without that, the
// shallowest chain runs through the search's root call, and everything
// a node does once (step the run, apply an object) would rank as if it
// ran once per engine call. Function literals do not reset the loop
// depth: a literal declared under a loop is conservatively assumed to
// run under it (the par.ForEach worker bodies are exactly this shape).

import (
	"go/ast"
	"sort"
	"strings"
)

// maxHotDepth caps the loop-depth metric; 10^maxHotDepth is the
// largest static weight a site can carry.
const maxHotDepth = 6

// hotRootNames are the exhaustive-engine entrypoints that anchor hot
// paths by name, wherever they are declared under internal/ or cmd/.
var hotRootNames = map[string]bool{
	"Explore":                   true,
	"ExploreReduced":            true,
	"AnalyzeValency":            true,
	"AnalyzeValencyReduced":     true,
	"CheckIndistinguishability": true,
}

// hotDirective marks a function as a hot root via a //detlint:hot
// comment in its doc group.
const hotDirective = "detlint:hot"

// hotInfo is the result of the hot-path fixpoint.
type hotInfo struct {
	// depth maps each hot-reachable function to its minimum
	// loop-depth-weighted distance from a root (roots are 0).
	depth map[*FuncNode]int
	// witness maps each hot-reachable function to the root its minimum
	// depth was first established from, for diagnostic attribution.
	witness map[*FuncNode]*FuncNode
	// mult counts the hot roots that reach each function — the
	// callgraph-multiplicity factor of the static score.
	mult map[*FuncNode]int
	// roots lists the hot roots in declaration order.
	roots []*FuncNode
}

// hotPaths returns the module's hot-path analysis, computing it on
// first use.
func (m *Module) hotPaths() *hotInfo {
	if m.hot == nil {
		m.hot = buildHotInfo(m)
	}
	return m.hot
}

// hasDirective reports whether the comment group contains a line whose
// text (after //) starts with the directive name.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == name || strings.HasPrefix(text, name+" ") {
			return true
		}
	}
	return false
}

// hotRoot reports whether the function anchors a hot path: an
// exhaustive-engine entrypoint by name, or an explicit //detlint:hot
// annotation.
func hotRoot(m *Module, n *FuncNode) bool {
	if !m.InScope(n.Pkg, "internal", "cmd") {
		return false
	}
	if hotRootNames[n.Decl.Name.Name] {
		return true
	}
	return hasDirective(n.Decl.Doc, hotDirective)
}

func buildHotInfo(m *Module) *hotInfo {
	g := m.CallGraph()
	nodes := g.sortedNodes()
	h := &hotInfo{
		depth:   make(map[*FuncNode]int),
		witness: make(map[*FuncNode]*FuncNode),
		mult:    make(map[*FuncNode]int),
	}
	for _, n := range nodes {
		if hotRoot(m, n) {
			h.roots = append(h.roots, n)
			h.depth[n] = 0
			h.witness[n] = n
		}
	}
	// Weighted call edges: callee -> minimum loop depth over the
	// caller's call sites resolving to it.
	type edge struct {
		callee *FuncNode
		depth  int
	}
	edges := make(map[*FuncNode][]edge, len(nodes))
	for _, n := range nodes {
		min := make(map[*FuncNode]int)
		loopDepthWalk(n.Decl.Body, func(x ast.Node, d int) {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return
			}
			for _, c := range g.calleesOf(n.Pkg, call) {
				if prev, ok := min[c]; !ok || d < prev {
					min[c] = d
				}
			}
		})
		// A call of n itself at loop depth ≥ 1 makes n's recursion the
		// loop around all of its calls.
		recursion := 0
		if d, ok := min[n]; ok && d >= 1 {
			recursion = 1
		}
		out := make([]edge, 0, len(min))
		for c, d := range min {
			out = append(out, edge{c, d + recursion})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].callee.Fn.Pos() < out[j].callee.Fn.Pos() })
		edges[n] = out
	}
	// Fixpoint over the weighted graph. Weights are nonnegative and
	// capped, so iterating the relaxation over the deterministic node
	// order converges; the witness is assigned when a node's depth
	// first improves, which keeps attribution stable across runs.
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			dn, ok := h.depth[n]
			if !ok {
				continue
			}
			for _, e := range edges[n] {
				d := dn + e.depth
				if d > maxHotDepth {
					d = maxHotDepth
				}
				if prev, ok := h.depth[e.callee]; !ok || d < prev {
					h.depth[e.callee] = d
					h.witness[e.callee] = h.witness[n]
					changed = true
				}
			}
		}
	}
	// Multiplicity: how many distinct roots reach each function.
	for _, r := range h.roots {
		for n := range g.Reachable([]*FuncNode{r}, nil) {
			h.mult[n]++
		}
	}
	return h
}

// funcDepth returns the hot depth of a function and whether it is
// hot-reachable at all.
func (h *hotInfo) funcDepth(n *FuncNode) (int, bool) {
	d, ok := h.depth[n]
	return d, ok
}

// loopDepthWalk invokes visit on every node under root together with
// the number of enclosing for/range statements. A loop's condition,
// post statement, and range source count at body depth — they execute
// (or are conservatively charged) once per iteration; only the shape
// of Init is over-charged, which errs toward flagging. Function
// literals deliberately do not reset the depth (see the file comment).
func loopDepthWalk(root ast.Node, visit func(n ast.Node, depth int)) {
	if root == nil {
		return
	}
	depth := 0
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch top.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				depth--
			}
			return true
		}
		visit(n, depth)
		stack = append(stack, n)
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
		}
		return true
	})
}

// hotWeight is the static execution-count estimate of a site at the
// given total (function + site) loop depth: 10^min(depth, maxHotDepth).
func hotWeight(depth int) int64 {
	if depth > maxHotDepth {
		depth = maxHotDepth
	}
	w := int64(1)
	for i := 0; i < depth; i++ {
		w *= 10
	}
	return w
}
