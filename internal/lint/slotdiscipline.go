package lint

// slotdiscipline holds internal/par's one idiom: worker i writes slot i,
// and the caller folds the slots in index order after ForEach returns.
// Every function literal passed as par.ForEach's third argument is a
// worker (inside package par an unqualified ForEach counts too), in
// non-test and _test.go files alike, and the check is syntactic: the
// parser's own identifier resolution tells a literal-local name from a
// captured one, so one code path serves both kinds of file.
//
// A write whose root is declared outside the literal must be root[i]…,
// where i is the literal's index parameter, or go through a local bound
// to &root[i]…. Anything else lets two workers reach one cell, and the
// final value becomes an accident of scheduling — even when a mutex
// serializes the writes, which is why no lock shape is accepted. Where
// the typed load knows the root is a map, root[i] is a finding too:
// map entries are not per-index slots. A channel operation or a go
// statement inside a worker orders results by completion, so each is a
// finding as well.
//
// The parallel hazards this check leaves out have other guards; see
// DESIGN.md §9.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// AnalyzerSlotDiscipline returns the slotdiscipline rule.
func AnalyzerSlotDiscipline() *Analyzer {
	return &Analyzer{
		Name: "slotdiscipline",
		Doc:  "par.ForEach workers write captured state only as root[i] or through a local bound to &root[i], and use no channels or go statements",
		Run:  runSlotDiscipline,
	}
}

func runSlotDiscipline(m *Module) []Diagnostic {
	parPath := m.Path + "/internal/par"
	var out []Diagnostic
	for _, pkg := range m.Pkgs {
		for _, files := range [][]*ast.File{pkg.Files, m.testFiles(pkg)} {
			for _, f := range files {
				qual := parImportName(f, parPath)
				bare := qual == "." || pkg.Path == parPath
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if lit := forEachWorker(call, qual, bare); lit != nil {
							out = append(out, checkWorker(m, pkg, lit)...)
						}
					}
					return true
				})
			}
		}
	}
	return out
}

// parImportName returns the name f imports internal/par under ("." for
// a dot import), or "" when f does not import it.
func parImportName(f *ast.File, parPath string) string {
	for _, imp := range f.Imports {
		if imp.Path.Value != strconv.Quote(parPath) {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "par"
	}
	return ""
}

// forEachWorker returns the worker literal of a ForEach(n, workers,
// func(i int) error {...}) call: qualified by the par import name, or
// unqualified where bare is set.
func forEachWorker(call *ast.CallExpr, qual string, bare bool) *ast.FuncLit {
	if len(call.Args) != 3 {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		// A package name resolves to no local object.
		x, ok := fun.X.(*ast.Ident)
		if !ok || x.Obj != nil || x.Name != qual || fun.Sel.Name != "ForEach" {
			return nil
		}
	case *ast.Ident:
		if !bare || fun.Name != "ForEach" {
			return nil
		}
	default:
		return nil
	}
	lit, _ := ast.Unparen(call.Args[2]).(*ast.FuncLit)
	return lit
}

// worker is one ForEach literal under audit.
type worker struct {
	m   *Module
	pkg *Package
	lit *ast.FuncLit
	// idx is the index parameter's object; nil when it is unnamed.
	idx *ast.Object
	out []Diagnostic
}

func checkWorker(m *Module, pkg *Package, lit *ast.FuncLit) []Diagnostic {
	w := &worker{m: m, pkg: pkg, lit: lit}
	if ps := lit.Type.Params.List; len(ps) > 0 && len(ps[0].Names) > 0 {
		w.idx = ps[0].Names[0].Obj
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					w.write(lhs)
				}
			}
		case *ast.IncDecStmt:
			w.write(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				w.write(n.Key)
				w.write(n.Value)
			}
		case *ast.SendStmt:
			w.order(n, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.order(n, "channel receive")
			}
		case *ast.SelectStmt:
			w.order(n, "select")
		case *ast.GoStmt:
			w.order(n, "go statement")
		}
		return true
	})
	return w.out
}

// order flags a construct that hands results over in completion order.
func (w *worker) order(n ast.Node, what string) {
	w.out = append(w.out, Diagnostic{
		Pos: w.m.Fset.Position(n.Pos()),
		Msg: what + " in a par.ForEach worker makes results depend on completion order; write slot i and fold the slots in index order after ForEach returns",
	})
}

// write audits one assignment target inside the worker.
func (w *worker) write(lhs ast.Expr) {
	if lhs == nil {
		return
	}
	root, step := rootOf(lhs)
	if root == nil || root.Name == "_" {
		return
	}
	if w.local(root) {
		// A plain local is free; a path through one is free unless the
		// local was bound to captured storage other than a slot handle.
		if step != nil {
			if src := w.aliased(root); src != nil {
				w.flag(lhs, "write through %q, which aliases captured %q", root.Name, src.Name)
			}
		}
		return
	}
	if w.slot(lhs) {
		return
	}
	switch step := step.(type) {
	case nil:
		w.flag(lhs, "assignment to captured variable %q", root.Name)
	case *ast.IndexExpr:
		if w.isMap(root) {
			w.flag(lhs, "write into captured map %q (map entries are not per-index slots)", root.Name)
		} else {
			w.flag(lhs, "write to captured %q at a subscript other than the worker index", root.Name)
		}
	case *ast.SelectorExpr:
		w.flag(lhs, "write to field %s of captured %q", step.Sel.Name, root.Name)
	case *ast.StarExpr:
		w.flag(lhs, "write through captured pointer %q", root.Name)
	}
}

func (w *worker) flag(n ast.Node, format string, args ...any) {
	w.out = append(w.out, Diagnostic{
		Pos: w.m.Fset.Position(n.Pos()),
		Msg: fmt.Sprintf(format, args...) +
			"; a par.ForEach worker writes captured state only as root[i], i its index parameter, or through a local bound to &root[i]",
	})
}

// local reports whether id is declared inside the worker literal, its
// parameters included. Unresolved names (package-level state from
// another file) count as captured.
func (w *worker) local(id *ast.Ident) bool {
	return id.Obj != nil && w.lit.Pos() <= id.Obj.Pos() && id.Obj.Pos() < w.lit.End()
}

// slot reports whether e is a path into the worker's own slot: a
// captured, non-map root whose first step is [i] with i the index
// parameter.
func (w *worker) slot(e ast.Expr) bool {
	root, step := rootOf(e)
	ix, ok := step.(*ast.IndexExpr)
	if !ok || w.local(root) || w.isMap(root) {
		return false
	}
	id, ok := ast.Unparen(ix.Index).(*ast.Ident)
	return ok && w.idx != nil && id.Obj == w.idx
}

// isMap reports whether the typed load knows root to be a map. Test
// files are outside the typed load, so there it is always false.
func (w *worker) isMap(root *ast.Ident) bool {
	t := w.pkg.Info.TypeOf(root)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// aliased returns the captured root a literal-local handle was bound to
// at its declaration (h := root, h := root[j:], h := &root.f, ...), or
// nil when the binding is local storage or a &root[i] slot handle.
func (w *worker) aliased(h *ast.Ident) *ast.Ident {
	var names []*ast.Ident
	var values []ast.Expr
	switch d := h.Obj.Decl.(type) {
	case *ast.AssignStmt:
		for _, l := range d.Lhs {
			id, _ := l.(*ast.Ident)
			names = append(names, id)
		}
		values = d.Rhs
	case *ast.ValueSpec:
		names, values = d.Names, d.Values
	}
	if len(names) != len(values) {
		return nil
	}
	for i, id := range names {
		if id == nil || id.Obj != h.Obj {
			continue
		}
		v := ast.Unparen(values[i])
		if u, ok := v.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if w.slot(u.X) {
				return nil
			}
			v = u.X
		}
		if s, ok := ast.Unparen(v).(*ast.SliceExpr); ok {
			v = s.X
		}
		if src, _ := rootOf(v); src != nil && !w.local(src) {
			return src
		}
	}
	return nil
}
