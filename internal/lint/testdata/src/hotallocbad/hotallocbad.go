// Package hotallocbad seeds every allocation-site kind the hotalloc
// rule must flag on a hot path: make, new, append growth, an escaping
// composite literal (a pointer stored away, a flat literal passed to
// an interface parameter or returned as an interface, and the address
// of a literal taken for a pointer receiver), string
// concatenation, and a fmt call —
// inside loops reachable from the Explore hot root, directly and
// through a helper only the callgraph connects, plus a //detlint:hot
// annotated sweep driver and a tree walk whose recursion is its loop;
// and a //detlint:hot comment on a loop, which marks nothing.
package hotallocbad

import "fmt"

// Node is the per-iteration record the helpers leak.
type Node struct{ ID int }

var sink []*Node

var kept any

// Explore is a hot root by name (the exhaustive-engine entrypoint
// convention).
func Explore(n int) []string {
	var out []string
	//detlint:hot a directive outside a function's doc group marks nothing
	for i := 0; i < n; i++ {
		seen := make(map[int]bool)
		seen[i] = true
		out = append(out, fmt.Sprint(i))
		step(i)
		keep(Node{ID: i})
	}
	return out
}

// keep retains whatever it is given: a literal passed to its interface
// parameter is boxed onto the heap.
func keep(v any) { kept = v }

// step allocates at function depth 1: no loop of its own, but it runs
// once per Explore iteration — only the callgraph connects the dots.
func step(i int) {
	n := &Node{ID: i}
	p := new(Node)
	p.ID = i
	sink = append(sink, n, p)
}

// Sweep is hot by annotation, like the chaos seed sweeps.
//
//detlint:hot
func Sweep(rounds int) string {
	s := ""
	for i := 0; i < rounds; i++ {
		s += "x"
		kept = boxed(i)
		_ = (&Node{ID: i}).id()
	}
	return s
}

// id has a pointer receiver, which may keep the literal it is called
// on: the literal's address is taken, so it is charged.
func (n *Node) id() int { return n.ID }

// boxed returns a flat literal as an interface: the result slot holds
// a pointer to a heap copy.
func boxed(i int) any { return Node{ID: i} }

// Tree is hot by annotation and calls walk once, outside any loop.
//
//detlint:hot
func Tree(n int) *Node { return walk(n) }

// walk calls itself from inside its loop, once per tree node, so the
// literal it builds outside that loop runs once per node too: depth 1,
// not the depth 0 of the one call Tree makes.
func walk(n int) *Node {
	node := &Node{ID: n}
	for i := 0; i < n; i++ {
		walk(n - 1)
	}
	return node
}
