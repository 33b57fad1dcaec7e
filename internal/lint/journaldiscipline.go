package lint

// journaldiscipline: on methods of journaled Recoverable types, every
// durable write must flow through the journal append before the method
// responds, and the response itself must derive from what was
// journaled. The journaled-operation recipe (internal/recoverable,
// DESIGN.md §7) makes an operation idempotent under crash-restart
// re-invocation by recording (opid, response) in the same atomic step
// as the durable mutation; a durable write the journal never covers is
// applied twice after a restart, and a response computed off to the
// side of the journal answers a re-invocation differently than the
// original call.
//
// A type opts in with //detlint:journaled <why> on its declaration and
// //detlint:journal <why> on its journal fields (persist.go parses
// both). The rule then runs a may-analysis over each method: the state
// is the set of durable non-journal write sites not yet followed by a
// journal write on some path (union joins); any such site still pending
// at a return is a finding, and a return of sim.Respond(x) after a
// durable mutation must pass a journal field, a constant, or a variable
// that is stored into the journal and keeps its one value throughout
// the method (singleAssigned).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// AnalyzerJournalDiscipline returns the journaldiscipline rule.
func AnalyzerJournalDiscipline() *Analyzer {
	return &Analyzer{
		Name: "journaldiscipline",
		Doc:  "durable writes on journaled types precede the journal append, and responses derive from the journal",
		Run:  runJournalDiscipline,
	}
}

func runJournalDiscipline(m *Module) []Diagnostic {
	info := m.persistInfo()
	g := m.CallGraph()
	var out []Diagnostic
	for _, pt := range info.types {
		if !persistScope(m, pt.pkg) {
			continue
		}
		tn := pt.name()
		if pt.journaled == nil {
			for _, pf := range pt.fields {
				if pf.journal != nil {
					out = append(out, Diagnostic{Pos: pf.decl, Msg: fmt.Sprintf(
						"field %s of %s is marked //detlint:journal but the type carries no //detlint:journaled nomination",
						pf.v.Name(), tn)})
				}
			}
			continue
		}
		var journal []*types.Var
		for _, pf := range pt.fields {
			if pf.journal == nil {
				continue
			}
			if pf.class != persistDurable {
				out = append(out, Diagnostic{Pos: pf.decl, Msg: fmt.Sprintf(
					"journal field %s of %s is volatile; a journal the crash wipes cannot make operations idempotent",
					pf.v.Name(), tn)})
			}
			journal = append(journal, pf.v)
		}
		if len(journal) == 0 {
			out = append(out, Diagnostic{Pos: pt.journaled.pos, Msg: fmt.Sprintf(
				"journaled type %s nominates no //detlint:journal fields; mark the per-process operation journal", tn)})
			continue
		}
		for _, n := range g.sortedNodes() {
			if n.Decl.Recv == nil || n.Decl.Name.Name == "OnCrash" {
				continue
			}
			sig, ok := n.Fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				continue
			}
			nb := namedBase(sig.Recv().Type())
			if nb == nil || nb.Obj() != pt.named.Obj() {
				continue
			}
			out = append(out, journalFlowInMethod(m, pt, journal, n)...)
		}
	}
	return out
}

// jwrite is one pending durable write site awaiting its journal append.
type jwrite struct {
	f   *types.Var
	pos token.Pos
}

// jstate is the may-state at a CFG point: the pending unjournaled
// durable writes, plus whether any path mutated durable state at all
// (which arms the response check).
type jstate struct {
	pending []jwrite
	mutated bool
}

func (s jstate) equal(o jstate) bool {
	if s.mutated != o.mutated || len(s.pending) != len(o.pending) {
		return false
	}
	for i := range s.pending {
		if s.pending[i] != o.pending[i] {
			return false
		}
	}
	return true
}

func (s jstate) union(o jstate) jstate {
	out := jstate{mutated: s.mutated || o.mutated}
	out.pending = append(out.pending, s.pending...)
	for _, w := range o.pending {
		if !containsJwrite(out.pending, w) {
			out.pending = append(out.pending, w)
		}
	}
	sortJwrites(out.pending)
	return out
}

func containsJwrite(set []jwrite, w jwrite) bool {
	for _, x := range set {
		if x == w {
			return true
		}
	}
	return false
}

func sortJwrites(set []jwrite) {
	for i := 1; i < len(set); i++ {
		for j := i; j > 0 && set[j].pos < set[j-1].pos; j-- {
			set[j], set[j-1] = set[j-1], set[j]
		}
	}
}

// journalFlowInMethod runs the pending-writes dataflow over one method
// of a journaled type.
func journalFlowInMethod(m *Module, pt *persistType, journal []*types.Var, n *FuncNode) []Diagnostic {
	body := n.Decl.Body
	cfg := BuildCFG(body)
	stored := journalStored(n.Pkg, journal, body)

	in := make(map[*Block]jstate)
	reached := map[*Block]bool{cfg.Entry: true}
	work := []*Block{cfg.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := journalTransfer(n.Pkg, pt, journal, b, in[b], nil)
		for _, s := range b.Succs {
			if !reached[s] {
				reached[s] = true
				in[s] = out
				work = append(work, s)
				continue
			}
			merged := in[s].union(out)
			if !merged.equal(in[s]) {
				in[s] = merged
				work = append(work, s)
			}
		}
	}
	var out []Diagnostic
	emitted := make(map[token.Pos]bool)
	emit := func(d Diagnostic, at token.Pos) {
		if emitted[at] {
			return
		}
		emitted[at] = true
		out = append(out, d)
	}
	for _, b := range cfg.Blocks {
		if !reached[b] {
			continue
		}
		journalTransfer(n.Pkg, pt, journal, b, in[b], func(ret *ast.ReturnStmt, st jstate) {
			for _, w := range st.pending {
				emit(Diagnostic{
					Pos: m.Fset.Position(w.pos),
					Msg: fmt.Sprintf("durable write to field %s of %s in %s reaches a return without a journal append after it; write-ahead order requires journaling (opid, response) in the same step",
						w.f.Name(), pt.name(), funcLabel(n)),
				}, w.pos)
			}
			if st.mutated {
				if d, bad := checkJournalResponse(m, n, pt, journal, stored, ret); bad {
					emit(d, ret.Pos())
				}
			}
		})
	}
	return out
}

// journalTransfer applies one block to the pending-writes state,
// invoking atReturn (when non-nil) for every return statement with the
// state reaching it.
func journalTransfer(pkg *Package, pt *persistType, journal []*types.Var, b *Block, st jstate, atReturn func(*ast.ReturnStmt, jstate)) jstate {
	apply := func(e ast.Expr) {
		f, _ := fieldTarget(pkg, e)
		pf := pt.byVar[f]
		if pf == nil {
			return
		}
		if slices.Contains(journal, f) {
			st.pending = nil // the append commits everything written so far
			st.mutated = true
			return
		}
		if pf.class == persistDurable {
			w := jwrite{f: f, pos: e.Pos()}
			if !containsJwrite(st.pending, w) {
				st.pending = append(st.pending, w)
				sortJwrites(st.pending)
			}
			st.mutated = true
		}
	}
	for _, s := range b.Stmts {
		if ret, ok := s.(*ast.ReturnStmt); ok && atReturn != nil {
			atReturn(ret, st)
		}
		inspectShallow(s, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, l := range x.Lhs {
					apply(l)
				}
			case *ast.IncDecStmt:
				apply(x.X)
			case *ast.CallExpr:
				if arg := builtinWipeArg(pkg, x); arg != nil {
					apply(arg)
				}
			}
			return true
		})
	}
	return st
}

// journalStored returns the variables a plain `field = v` statement
// stores into a journal field: the values a response may legitimately
// return.
func journalStored(pkg *Package, journal []*types.Var, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			f, _ := fieldTarget(pkg, l)
			if f == nil || !slices.Contains(journal, f) {
				continue
			}
			if id, ok := ast.Unparen(as.Rhs[i]).(*ast.Ident); ok {
				if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
					out[v] = true
				}
			}
		}
		return true
	})
	return out
}

// checkJournalResponse decides whether a return after a durable
// mutation answers from the journal. Accepted shapes: a non-Respond
// return (not an op response), a constant or nil argument, an argument
// mentioning a journal field, or a plain identifier that is stored into
// the journal and never rebound in the method (the `r := ...;
// journal = r; return Respond(r)` idiom).
func checkJournalResponse(m *Module, n *FuncNode, pt *persistType, journal []*types.Var, stored map[*types.Var]bool, ret *ast.ReturnStmt) (Diagnostic, bool) {
	if len(ret.Results) != 1 {
		return Diagnostic{}, false
	}
	call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return Diagnostic{}, false
	}
	fn := resolvedFunc(n.Pkg, call)
	if !isFunc(fn, m.Path+"/internal/sim", "Respond") {
		return Diagnostic{}, false
	}
	arg := ast.Unparen(call.Args[0])
	if tv, ok := n.Pkg.Info.Types[arg]; ok && (tv.Value != nil || tv.IsNil()) {
		return Diagnostic{}, false
	}
	mentionsJournal := false
	ast.Inspect(arg, func(x ast.Node) bool {
		if sel, ok := x.(*ast.SelectorExpr); ok && slices.Contains(journal, selectedField(n.Pkg, sel)) {
			mentionsJournal = true
		}
		return !mentionsJournal
	})
	if mentionsJournal {
		return Diagnostic{}, false
	}
	if id, ok := arg.(*ast.Ident); ok {
		if v, ok := n.Pkg.Info.Uses[id].(*types.Var); ok && stored[v] && singleAssigned(n.Pkg, n.Decl.Body, v) {
			return Diagnostic{}, false
		}
	}
	return Diagnostic{
		Pos: m.Fset.Position(ret.Pos()),
		Msg: fmt.Sprintf("response of %s does not derive from the journal of %s after a durable mutation; return the journaled response so a re-invocation after restart answers identically",
			funcLabel(n), pt.name()),
	}, true
}

// singleAssigned reports whether v, a parameter or local of the
// function whose body is given, holds one value for the whole body: no
// assignment, op-assign, ++/--, range clause or short redeclaration
// writes it after its declaration, and nothing takes its address.
// Package-level variables never qualify; other functions write them.
func singleAssigned(pkg *Package, body *ast.BlockStmt, v *types.Var) bool {
	if isPackageScoped(v) {
		return false
	}
	isV := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pkg.Info.Uses[id] == v
	}
	rebound := false
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			rebound = rebound || slices.ContainsFunc(x.Lhs, isV)
		case *ast.RangeStmt:
			rebound = rebound || isV(x.Key) || isV(x.Value)
		case *ast.IncDecStmt:
			rebound = rebound || isV(x.X)
		case *ast.UnaryExpr:
			rebound = rebound || (x.Op == token.AND && isV(x.X))
		}
		return !rebound
	})
	return !rebound
}
