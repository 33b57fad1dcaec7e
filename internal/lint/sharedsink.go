package lint

// sharedsink audits the shared accumulators worker bodies are allowed to
// keep: the documented shapes are an atomic counter (method calls on
// captured sync/atomic values, such as a shared early-exit budget), a
// mutex-guarded sink (every write to the variable under the
// same lock, proved by the literal's own lockset with an empty entry
// set), and per-index slots (slotdiscipline's territory, accepted here
// too). The rule anchors on both kinds of worker literal:
//
//   - goroutine workers (go func(){...}()): a captured write that is
//     neither an index-derived slot — per-iteration loop variables and
//     atomic claims count as indices — nor mutex-guarded is a finding,
//     and a variable written under two different locks is a finding;
//   - par.ForEach workers: the ForEach return is the barrier, so only
//     the mixed-lock shape check applies (bare writes are already
//     slotdiscipline findings).
//
// On the read side, a plain read of goroutine-worker-written state later
// in the same function needs a proven happens-before: a WaitGroup.Wait
// between the spawn and the read, or the write's own lock held at the
// read. Slot-classified writes are exempt — their visibility is the
// surrounding pool's barrier or channel handshake, which the repository
// encodes in par.ForEach.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AnalyzerSharedSink returns the sharedsink rule.
func AnalyzerSharedSink() *Analyzer {
	return &Analyzer{
		Name: "sharedsink",
		Doc:  "shared accumulators captured by workers must be atomic counters, mutex-guarded sinks, or index-derived slots, with a proven happens-before at post-loop reads",
		Run:  runSharedSink,
	}
}

func runSharedSink(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, n := range m.CallGraph().sortedNodes() {
		if !m.InScope(n.Pkg, "internal", "cmd") {
			continue
		}
		for _, gw := range goWorkers(n) {
			out = append(out, checkGoWorker(m, n, gw)...)
		}
		for _, w := range parWorkers(m, n) {
			out = append(out, checkSinkLocks(m, n, w.lit)...)
		}
	}
	return out
}

// goWorker is one `go func(){...}(...)` spawn site.
type goWorker struct {
	stmt *ast.GoStmt
	lit  *ast.FuncLit
}

// goWorkers finds the direct goroutine literals of one declared
// function, in source order.
func goWorkers(n *FuncNode) []goWorker {
	var out []goWorker
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		g, ok := x.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
			out = append(out, goWorker{stmt: g, lit: lit})
		}
		return true
	})
	return out
}

// checkGoWorker audits one goroutine literal's captured writes and the
// enclosing function's post-spawn reads.
func checkGoWorker(m *Module, n *FuncNode, gw goWorker) []Diagnostic {
	pkg := n.Pkg
	ssa := BuildLitSSA(pkg, gw.lit)
	captured := capturedVars(pkg, gw.lit)
	idx := litParam(pkg, gw.lit, 0) // usually nil: go-lits take no index
	der := newIdxDeriver(pkg, ssa, idx)
	for v := range atomicClaimVars(pkg, gw.lit) {
		der.extra[v] = true
	}
	// Per-iteration variables of the loops enclosing the spawn are
	// index-equivalent: `for p := range peers { p := p; go func(){
	// slots[p] = ... } }` hands each goroutine its own p.
	capOrder := make([]*types.Var, 0, len(captured))
	for v := range captured {
		capOrder = append(capOrder, v)
	}
	sort.Slice(capOrder, func(i, j int) bool { return lockLess(capOrder[i], capOrder[j]) })
	for _, v := range capOrder {
		if perIteration(n, gw.stmt, v) {
			der.extra[v] = true
		}
	}
	locks := ComputeLockFacts(pkg, ssa.CFG)

	var out []Diagnostic
	// writeLocks tracks, per captured variable, the intersection of lock
	// sets across its guarded writes; nil means "no guarded write yet".
	writeLocks := make(map[*types.Var][]*types.Var)
	lockedWritten := make(map[*types.Var]bool)
	slotWritten := make(map[*types.Var]bool)
	bare := make(map[*types.Var]bool)
	for _, wr := range litWrites(pkg, gw.lit) {
		v := wr.rootVar
		if !captured[v] {
			if _, plain := ast.Unparen(wr.lhs).(*ast.Ident); plain {
				continue
			}
			if der.classifyAlias(ssa.BindingAt(wr.stmt, v), captured) == aliasShared {
				out = append(out, Diagnostic{
					Pos: m.Fset.Position(wr.lhs.Pos()),
					Msg: fmt.Sprintf("goroutine worker writes through %q, which aliases captured state without an index-derived subscript", wr.root.Name),
				})
			}
			continue
		}
		if held := locks.Before[wr.stmt]; len(held) > 0 {
			lockedWritten[v] = true
			if prev, seen := writeLocks[v]; seen {
				writeLocks[v] = intersectLocks(prev, held)
			} else {
				writeLocks[v] = held
			}
			continue
		}
		if isSlotWrite(pkg, der, wr) {
			slotWritten[v] = true
			continue
		}
		bare[v] = true
		out = append(out, Diagnostic{
			Pos: m.Fset.Position(wr.lhs.Pos()),
			Msg: fmt.Sprintf("goroutine worker writes captured %q outside any documented shape (index-derived slot, sync/atomic, or mutex-guarded sink)", wr.root.Name),
		})
	}
	for _, v := range sortedVars(writeLocks) {
		if len(writeLocks[v]) == 0 {
			out = append(out, Diagnostic{
				Pos: m.Fset.Position(gw.lit.Pos()),
				Msg: fmt.Sprintf("captured %q is written under different locks; a shared sink needs one common mutex", v.Name()),
			})
		}
	}

	// Read side: plain post-spawn reads of locked-sink variables need a
	// Wait barrier or the sink's lock.
	declLocks := lockedSelectorStmts(pkg, n.Decl)
	waits := waitCalls(pkg, n.Decl)
	flagged := make(map[*types.Var]bool)
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if x == nil || x.Pos() <= gw.stmt.End() {
			if lit, isLit := x.(*ast.FuncLit); isLit && lit == gw.lit {
				return false
			}
			return true
		}
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false // another goroutine's body: its own spawn anchors it
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || !lockedWritten[v] || flagged[v] || bare[v] {
			return true
		}
		if waitBetween(waits, gw.stmt.End(), id.Pos()) {
			return true
		}
		if held := declLocks[id.Pos()]; sharesLock(held, writeLocks[v]) {
			return true
		}
		flagged[v] = true
		out = append(out, Diagnostic{
			Pos: m.Fset.Position(id.Pos()),
			Msg: fmt.Sprintf("read of worker-written %q with no proven happens-before (no WaitGroup.Wait between spawn and read, and the sink's mutex is not held)", v.Name()),
		})
		return true
	})
	return out
}

// checkSinkLocks validates the mutex-sink shape inside a par.ForEach
// worker: every guarded write to one captured variable must share a
// common lock.
func checkSinkLocks(m *Module, n *FuncNode, lit *ast.FuncLit) []Diagnostic {
	pkg := n.Pkg
	ssa := BuildLitSSA(pkg, lit)
	captured := capturedVars(pkg, lit)
	locks := ComputeLockFacts(pkg, ssa.CFG)
	writeLocks := make(map[*types.Var][]*types.Var)
	for _, wr := range litWrites(pkg, lit) {
		if !captured[wr.rootVar] {
			continue
		}
		held := locks.Before[wr.stmt]
		if len(held) == 0 {
			continue // slotdiscipline's finding if it is not a slot
		}
		if prev, seen := writeLocks[wr.rootVar]; seen {
			writeLocks[wr.rootVar] = intersectLocks(prev, held)
		} else {
			writeLocks[wr.rootVar] = held
		}
	}
	var out []Diagnostic
	for _, v := range sortedVars(writeLocks) {
		if len(writeLocks[v]) == 0 {
			out = append(out, Diagnostic{
				Pos: m.Fset.Position(lit.Pos()),
				Msg: fmt.Sprintf("captured %q is written under different locks across par.ForEach workers; a shared sink needs one common mutex", v.Name()),
			})
		}
	}
	return out
}

// isSlotWrite reports whether one captured write targets an
// index-derived slot.
func isSlotWrite(pkg *Package, der *idxDeriver, wr capturedWrite) bool {
	step, ok := firstStep(wr.lhs, wr.root).(*ast.IndexExpr)
	if !ok {
		return false
	}
	if t := pkg.Info.TypeOf(wr.root); t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			return false
		}
	}
	return der.derived(step.Index, wr.stmt)
}

// perIteration reports whether a captured variable is declared inside
// one of the loops enclosing the spawn statement — a fresh binding per
// iteration, so each goroutine sees its own copy.
func perIteration(n *FuncNode, spawn *ast.GoStmt, v *types.Var) bool {
	found := false
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if x.Pos() <= spawn.Pos() && spawn.End() <= x.End() &&
				x.Pos() <= v.Pos() && v.Pos() <= x.End() {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// lockedSelectorStmts maps every identifier position in the declaration
// to the must-hold lockset of its statement.
func lockedSelectorStmts(pkg *Package, fd *ast.FuncDecl) map[token.Pos][]*types.Var {
	out := make(map[token.Pos][]*types.Var)
	for _, body := range FuncBodies(fd) {
		cfg := BuildCFG(body)
		lf := ComputeLockFacts(pkg, cfg)
		for _, b := range cfg.Blocks {
			for _, st := range b.Stmts {
				held, reached := lf.Before[st]
				if !reached {
					continue
				}
				inspectShallow(st, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if _, seen := out[id.Pos()]; !seen {
							out[id.Pos()] = held
						}
					}
					return true
				})
			}
		}
	}
	return out
}

// waitCalls lists the positions of WaitGroup.Wait() calls in the
// declaration (literals excluded — a Wait on another goroutine proves
// nothing for this one), in source order.
func waitCalls(pkg *Package, fd *ast.FuncDecl) []token.Pos {
	var out []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isMethod(resolvedFunc(pkg, call), "sync", "Wait") {
			out = append(out, call.Pos())
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// waitBetween reports a Wait call positioned between the two points.
func waitBetween(waits []token.Pos, after, before token.Pos) bool {
	for _, w := range waits {
		if w > after && w < before {
			return true
		}
	}
	return false
}

// sharesLock reports a non-empty intersection of two lock sets.
func sharesLock(a, b []*types.Var) bool {
	for _, x := range a {
		if hasLock(b, x) {
			return true
		}
	}
	return false
}

// sortedVars returns the map's keys in deterministic position order.
func sortedVars(m map[*types.Var][]*types.Var) []*types.Var {
	out := make([]*types.Var, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return lockLess(out[i], out[j]) })
	return out
}
