package lint

// recoveryreads: code reachable from a recovery procedure must not read
// a volatile field before re-deriving it. A crash wipes the volatile
// half of every Recoverable object (persist.go classifies which half
// that is), so recovery code observing a volatile field before writing
// it reads post-crash zero state — the exact bug class the recovery
// step exists to prevent, and one no test catches unless the crash
// lands on the right step.
//
// The analysis is a must-write-before-read dataflow: per CFG block, the
// state is the set of volatile fields written on *every* path from
// entry; joins intersect; a read of a volatile field outside the set is
// a finding. There is no kill — within one function a re-derived field
// stays re-derived. Roots are the module's Recovery methods and every
// function returning a sim.RecoveryProc; reachability (minus the
// simulator itself, whose Invoke fans out to every Apply method through
// the interface) pulls helpers in, with the witness attributing each
// finding to the recovery root that reaches it. Each function —
// including each closure body, the usual shape of a RecoveryProc — is
// analyzed with an empty entry set: a conservative, modular
// approximation (a caller that already re-derived the field still
// counts as a miss in the callee; justify those with an allow).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// AnalyzerRecoveryReads returns the recoveryreads rule.
func AnalyzerRecoveryReads() *Analyzer {
	return &Analyzer{
		Name: "recoveryreads",
		Doc:  "recovery code re-derives volatile fields before reading them (must-write-before-read)",
		Run:  runRecoveryReads,
	}
}

func runRecoveryReads(m *Module) []Diagnostic {
	info := m.persistInfo()
	if len(info.byField) == 0 {
		return nil
	}
	g := m.CallGraph()
	var roots []*FuncNode
	for _, n := range g.sortedNodes() {
		if isRecoveryRoot(m, n) {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	simPath := m.Path + "/internal/sim"
	witness := g.ReachableWitness(roots, func(p *Package) bool { return p.Path == simPath })
	var out []Diagnostic
	for _, n := range g.sortedNodes() {
		w, ok := witness[n]
		if !ok || !persistScope(m, n.Pkg) {
			continue
		}
		via := ""
		if w != n {
			via = fmt.Sprintf(" (recovery code reachable from %s)", funcLabel(w))
		}
		for _, body := range FuncBodies(n.Decl) {
			out = append(out, recoveryReadsInBody(m, info, n, body, via)...)
		}
	}
	return out
}

// isRecoveryRoot reports a recovery entry point: a method named
// Recovery, or a function with a sim.RecoveryProc in its results (the
// closure-returning idiom of internal/recoverable).
func isRecoveryRoot(m *Module, n *FuncNode) bool {
	if n.Decl.Recv != nil && n.Decl.Name.Name == "Recovery" {
		return true
	}
	sig, ok := n.Fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	simPath := m.Path + "/internal/sim"
	for i := 0; i < sig.Results().Len(); i++ {
		nb := namedBase(sig.Results().At(i).Type())
		if nb != nil && nb.Obj().Name() == "RecoveryProc" &&
			nb.Obj().Pkg() != nil && nb.Obj().Pkg().Path() == simPath {
			return true
		}
	}
	return false
}

// recoveryReadsInBody runs the must-write-before-read dataflow over one
// function (or closure) body.
func recoveryReadsInBody(m *Module, info *persistInfo, n *FuncNode, body *ast.BlockStmt, via string) []Diagnostic {
	cfg := BuildCFG(body)
	in := make(map[*Block][]*types.Var)
	reached := map[*Block]bool{cfg.Entry: true}
	work := []*Block{cfg.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := recoveryTransfer(n.Pkg, info, b, in[b], nil)
		for _, s := range b.Succs {
			if !reached[s] {
				reached[s] = true
				in[s] = out
				work = append(work, s)
				continue
			}
			// The join only shrinks a set, so a change shows in its length.
			merged := intersectWritten(in[s], out)
			if len(merged) != len(in[s]) {
				in[s] = merged
				work = append(work, s)
			}
		}
	}
	var out []Diagnostic
	emitted := make(map[token.Pos]bool)
	for _, b := range cfg.Blocks {
		if !reached[b] {
			continue
		}
		recoveryTransfer(n.Pkg, info, b, in[b], func(pf *persistField, sel *ast.SelectorExpr) {
			if emitted[sel.Pos()] {
				return
			}
			emitted[sel.Pos()] = true
			out = append(out, Diagnostic{
				Pos: m.Fset.Position(sel.Pos()),
				Msg: fmt.Sprintf("%s reads volatile field %s of %s before re-deriving it%s; a crash wiped the field, so this read observes post-crash zero state",
					funcLabel(n), pf.v.Name(), pf.owner.name(), via),
			})
		})
	}
	return out
}

// recoveryTransfer applies one block to the must-written set, invoking
// emit (when non-nil) for every volatile read outside the set. Within a
// statement, reads are checked against the state before the statement's
// own writes take effect (x = x reads the stale value).
func recoveryTransfer(pkg *Package, info *persistInfo, b *Block, written []*types.Var, emit func(*persistField, *ast.SelectorExpr)) []*types.Var {
	for _, st := range b.Stmts {
		var writes []*types.Var
		// A selector that is the target of a plain assignment (or a
		// delete/clear) re-derives the field rather than reading it; the
		// target of ++/--/op= reads the old value first and stays a read.
		targets := make(map[ast.Expr]bool)
		inspectShallow(st, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, l := range x.Lhs {
					if f, _ := fieldTarget(pkg, l); f != nil {
						if pf := info.byField[f]; pf != nil && pf.class == persistVolatile {
							writes = append(writes, f)
							if x.Tok == token.ASSIGN {
								targets[targetSelector(l)] = true
							}
						}
					}
				}
			case *ast.IncDecStmt:
				if f, _ := fieldTarget(pkg, x.X); f != nil {
					if pf := info.byField[f]; pf != nil && pf.class == persistVolatile {
						writes = append(writes, f)
					}
				}
			case *ast.CallExpr:
				if arg := builtinWipeArg(pkg, x); arg != nil {
					if f, _ := fieldTarget(pkg, arg); f != nil {
						if pf := info.byField[f]; pf != nil && pf.class == persistVolatile {
							writes = append(writes, f)
							targets[targetSelector(arg)] = true
						}
					}
				}
			}
			return true
		})
		if emit != nil {
			inspectShallow(st, func(x ast.Node) bool {
				sel, ok := x.(*ast.SelectorExpr)
				if !ok || targets[sel] {
					return true
				}
				f := selectedField(pkg, sel)
				if f == nil {
					return true
				}
				pf := info.byField[f]
				if pf == nil || pf.class != persistVolatile || slices.Contains(written, f) {
					return true
				}
				emit(pf, sel)
				return true
			})
		}
		for _, f := range writes {
			written = addWritten(written, f)
		}
	}
	return written
}

// targetSelector unwraps an assignment target to the selector that
// names the written field, for exclusion from the read scan.
func targetSelector(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

// addWritten returns written ∪ {f} without mutating written, which may
// be another block's in-state.
func addWritten(written []*types.Var, f *types.Var) []*types.Var {
	if slices.Contains(written, f) {
		return written
	}
	return append(slices.Clip(written), f)
}

// intersectWritten returns the fields written on both joined paths, in
// a's order.
func intersectWritten(a, b []*types.Var) []*types.Var {
	var out []*types.Var
	for _, f := range a {
		if slices.Contains(b, f) {
			out = append(out, f)
		}
	}
	return out
}
