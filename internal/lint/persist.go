package lint

// persist.go is the persistence-dataflow layer under detlint's
// recovery-safety rules. The recoverable fault model (internal/sim
// fault.go, DESIGN.md §7) splits every sim.Recoverable implementor's
// state into a durable half (survives an amnesiac crash) and a volatile
// half (OnCrash wipes it). Which half a field lands in decides which
// theorem the object reproduces — Recoverable Consensus Numbers hinges
// exactly on what survives — so the split must be checkable, not
// conventional.
//
// The layer classifies every field of every Recoverable implementor:
//
//   - The OnCrash write set is inferred interprocedurally (callgraph
//     reachability from the OnCrash method, restricted to the declaring
//     package): a field OnCrash assigns, delete()s, or clear()s is
//     wiped.
//   - Annotations confirm the intent: //detlint:durable <why> and
//     //detlint:volatile <why> on the field's declaration line (or
//     stacked on the lines directly above it) pin the class; the
//     inference then audits the annotation instead of replacing it.
//   - //detlint:journaled <why> on a type nominates it as journaled;
//     //detlint:journal <why> marks its journal fields. The
//     journaldiscipline rule consumes these.
//
// The persistsplit rule (this file) reports the lattice's integrity
// findings: unannotated fields, contradictory or unjustified
// annotations, durable fields OnCrash wipes (amnesia), volatile fields
// it misses (ghost state), and annotations that attach to nothing.
// journaldiscipline.go and restartcoverage.go build their dataflow on
// top of the classification computed here, cached on the Module like
// the callgraph.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// persistClass is a field's place in the persistence lattice.
type persistClass int

const (
	persistUnknown persistClass = iota
	persistDurable
	persistVolatile
)

func (c persistClass) String() string {
	switch c {
	case persistDurable:
		return "durable"
	case persistVolatile:
		return "volatile"
	}
	return "unknown"
}

// Persistence annotation directive words.
const (
	annDurable   = "durable"
	annVolatile  = "volatile"
	annJournaled = "journaled"
	annJournal   = "journal"
)

// persistAnn is one parsed persistence annotation comment.
type persistAnn struct {
	// kind is the directive word: durable, volatile, journaled, journal.
	kind string
	// justified reports an inline justification after the directive.
	justified bool
	// pos locates the comment.
	pos token.Position
	// consumed is set when the annotation attaches to a field or type of
	// a Recoverable implementor; unconsumed annotations are findings.
	consumed bool
}

// persistField is the classification of one field of a Recoverable
// implementor.
type persistField struct {
	v *types.Var
	// decl locates the field declaration.
	decl token.Position
	// wiped reports the field in OnCrash's interprocedural write set;
	// wipePos is the first wipe site in position order.
	wiped   bool
	wipePos token.Position
	// ann is the durable/volatile annotation, if any; conflict reports
	// both kinds present.
	ann      *persistAnn
	conflict bool
	// journal is the //detlint:journal mark, if any.
	journal *persistAnn
	// class is the final verdict: the annotation when present, the
	// OnCrash inference otherwise.
	class persistClass
}

// persistType is one sim.Recoverable implementor with its classified
// fields.
type persistType struct {
	named *types.Named
	pkg   *Package
	decl  token.Position
	// onCrash is the callgraph node of the type's OnCrash method (nil
	// when the method has no module declaration).
	onCrash *FuncNode
	// journaled is the //detlint:journaled nomination, if any.
	journaled *persistAnn
	fields    []*persistField
	byVar     map[*types.Var]*persistField
}

// name renders the type as pkgname.Type.
func (pt *persistType) name() string {
	return pt.pkg.Types.Name() + "." + pt.named.Obj().Name()
}

// persistInfo is the module-wide persistence classification, cached on
// the Module across the three recovery-safety rules.
type persistInfo struct {
	// types lists every Recoverable implementor in declaration order.
	types   []*persistType
	byNamed map[*types.Named]*persistType
	// anns lists every persistence annotation per package, in file and
	// position order, for the misplaced-annotation audit.
	anns map[*Package][]*persistAnn
	// byLine indexes annotations by file name and line.
	byLine map[string]map[int][]*persistAnn
}

// persistInfo returns the module's persistence classification, building
// it on first use.
func (m *Module) persistInfo() *persistInfo {
	if m.persist == nil {
		m.persist = buildPersistInfo(m)
	}
	return m.persist
}

// recoverableInterface resolves the sim.Recoverable interface, or nil
// when the module has no simulator package (fixture-only loads).
func recoverableInterface(m *Module) *types.Interface {
	simPkg := m.Lookup(m.Path + "/internal/sim")
	if simPkg == nil {
		return nil
	}
	obj := simPkg.Types.Scope().Lookup("Recoverable")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

func buildPersistInfo(m *Module) *persistInfo {
	info := &persistInfo{
		byNamed: make(map[*types.Named]*persistType),
		anns:    make(map[*Package][]*persistAnn),
		byLine:  make(map[string]map[int][]*persistAnn),
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					a := parsePersistAnn(m, c)
					if a == nil {
						continue
					}
					info.anns[pkg] = append(info.anns[pkg], a)
					byLine := info.byLine[a.pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]*persistAnn)
						info.byLine[a.pos.Filename] = byLine
					}
					byLine[a.pos.Line] = append(byLine[a.pos.Line], a)
				}
			}
		}
	}
	iface := recoverableInterface(m)
	if iface == nil {
		return info
	}
	g := m.CallGraph()
	for _, named := range g.namedTypes {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj := named.Obj()
		if obj.Pkg() == nil {
			continue
		}
		pkg := m.Lookup(obj.Pkg().Path())
		if pkg == nil {
			continue
		}
		pt := &persistType{
			named: named,
			pkg:   pkg,
			decl:  m.Fset.Position(obj.Pos()),
			byVar: make(map[*types.Var]*persistField),
		}
		pt.journaled = info.attachAnn(pt.decl, nil, annJournaled)
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		// Field declaration lines, so a stacked annotation walk never
		// crosses into (or consumes an inline annotation of) another field.
		fieldLines := make(map[int]bool, st.NumFields())
		for i := 0; i < st.NumFields(); i++ {
			fieldLines[m.Fset.Position(st.Field(i).Pos()).Line] = true
		}
		for i := 0; i < st.NumFields(); i++ {
			fv := st.Field(i)
			pf := &persistField{v: fv, decl: m.Fset.Position(fv.Pos())}
			pf.attachFieldAnns(info, fieldLines)
			pt.fields = append(pt.fields, pf)
			pt.byVar[fv] = pf
		}
		if fn := lookupConcreteMethod(named, "OnCrash"); fn != nil {
			pt.onCrash = g.NodeOf(fn)
		}
		info.types = append(info.types, pt)
		info.byNamed[named] = pt
	}
	for _, pt := range info.types {
		inferWipes(m, g, pt)
		for _, pf := range pt.fields {
			switch {
			case pf.ann != nil && pf.ann.kind == annDurable:
				pf.class = persistDurable
			case pf.ann != nil:
				pf.class = persistVolatile
			case pf.wiped:
				pf.class = persistVolatile
			default:
				pf.class = persistDurable
			}
		}
	}
	return info
}

// parsePersistAnn parses one comment into a persistence annotation, or
// nil when the comment is not one.
func parsePersistAnn(m *Module, c *ast.Comment) *persistAnn {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	rest, ok := strings.CutPrefix(text, "detlint:")
	if !ok {
		return nil
	}
	word, tail, _ := strings.Cut(rest, " ")
	switch word {
	case annDurable, annVolatile, annJournaled, annJournal:
	default:
		return nil
	}
	return &persistAnn{
		kind:      word,
		justified: strings.TrimSpace(tail) != "",
		pos:       m.Fset.Position(c.Pos()),
	}
}

// attachAnn consumes and returns the first annotation of one of the
// kinds on the declaration's line or the stacked annotation lines
// directly above it. stop marks lines the upward walk must not cross
// (other field declarations); nil means no barrier.
func (info *persistInfo) attachAnn(decl token.Position, stop map[int]bool, kinds ...string) *persistAnn {
	byLine := info.byLine[decl.Filename]
	if byLine == nil {
		return nil
	}
	match := func(line int, inline bool) *persistAnn {
		if !inline && stop != nil && stop[line] {
			return nil // inline annotation of the declaration above
		}
		for _, a := range byLine[line] {
			for _, k := range kinds {
				if a.kind == k {
					a.consumed = true
					return a
				}
			}
		}
		return nil
	}
	if a := match(decl.Line, true); a != nil {
		return a
	}
	// Walk upward through the stacked annotation block.
	for line := decl.Line - 1; line > 0 && len(byLine[line]) > 0; line-- {
		if a := match(line, false); a != nil {
			return a
		}
		if stop != nil && stop[line] {
			break
		}
	}
	return nil
}

// attachFieldAnns binds the field's durable/volatile and journal
// annotations, recording a conflict when both classes appear.
func (pf *persistField) attachFieldAnns(info *persistInfo, fieldLines map[int]bool) {
	stop := make(map[int]bool, len(fieldLines))
	for l := range fieldLines {
		if l != pf.decl.Line {
			stop[l] = true
		}
	}
	pf.ann = info.attachAnn(pf.decl, stop, annDurable, annVolatile)
	if pf.ann != nil {
		// A second annotation of the opposite class is a contradiction.
		other := annVolatile
		if pf.ann.kind == annVolatile {
			other = annDurable
		}
		if second := info.attachAnn(pf.decl, stop, other); second != nil {
			pf.conflict = true
		}
	}
	pf.journal = info.attachAnn(pf.decl, stop, annJournal)
}

// inferWipes computes the type's OnCrash write set: every field written
// (assignment, ++/--, delete, clear) in code reachable from OnCrash
// within the declaring package.
func inferWipes(m *Module, g *CallGraph, pt *persistType) {
	if pt.onCrash == nil {
		return
	}
	own := pt.pkg
	reach := g.ReachableWitness([]*FuncNode{pt.onCrash}, func(p *Package) bool { return p != own })
	for _, n := range g.sortedNodes() {
		if _, ok := reach[n]; !ok {
			continue
		}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, l := range x.Lhs {
					markWipe(m, pt, n.Pkg, l)
				}
			case *ast.IncDecStmt:
				markWipe(m, pt, n.Pkg, x.X)
			case *ast.CallExpr:
				if arg := builtinWipeArg(n.Pkg, x); arg != nil {
					markWipe(m, pt, n.Pkg, arg)
				}
			}
			return true
		})
	}
}

// markWipe records a wipe of one of pt's fields when the expression
// targets one.
func markWipe(m *Module, pt *persistType, pkg *Package, e ast.Expr) {
	f, _ := fieldTarget(pkg, e)
	pf := pt.byVar[f]
	if pf == nil {
		return
	}
	pos := m.Fset.Position(e.Pos())
	if !pf.wiped || posLess(pos, pf.wipePos) {
		pf.wipePos = pos
	}
	pf.wiped = true
}

// builtinWipeArg returns the wiped container expression of a delete()
// or clear() call, or nil.
func builtinWipeArg(pkg *Package, call *ast.CallExpr) ast.Expr {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	if !ok || (b.Name() != "delete" && b.Name() != "clear") || len(call.Args) == 0 {
		return nil
	}
	return call.Args[0]
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// persistScope reports whether pkg's Recoverable types are in the
// persistence rules' scope: the real tree under internal/ and cmd/,
// which the grafted lintfixture packages match by construction.
func persistScope(m *Module, pkg *Package) bool {
	return m.InScope(pkg, "internal", "cmd")
}

// AnalyzerPersistSplit returns the persistsplit rule: every field of a
// sim.Recoverable implementor must be declared durable or volatile, and
// the OnCrash write set must match the declaration — a wiped durable
// field is amnesia, an untouched volatile field is ghost state.
func AnalyzerPersistSplit() *Analyzer {
	return &Analyzer{
		Name: "persistsplit",
		Doc:  "fields of sim.Recoverable implementors declare durable/volatile, and OnCrash wipes exactly the volatile set",
		Run:  runPersistSplit,
	}
}

func runPersistSplit(m *Module) []Diagnostic {
	info := m.persistInfo()
	var out []Diagnostic
	for _, pt := range info.types {
		if !persistScope(m, pt.pkg) {
			continue
		}
		tn := pt.name()
		for _, pf := range pt.fields {
			name := pf.v.Name()
			if pf.conflict {
				out = append(out, Diagnostic{Pos: pf.decl, Msg: fmt.Sprintf(
					"field %s of %s carries both //detlint:durable and //detlint:volatile; a field lives in exactly one half of the persistence split",
					name, tn)})
				continue
			}
			if pf.ann == nil {
				out = append(out, Diagnostic{Pos: pf.decl, Msg: fmt.Sprintf(
					"field %s of %s (a sim.Recoverable implementor) has no //detlint:durable or //detlint:volatile annotation; OnCrash analysis infers it %s — declare the intent",
					name, tn, pf.class)})
				continue
			}
			if !pf.ann.justified {
				out = append(out, Diagnostic{Pos: pf.ann.pos, Msg: fmt.Sprintf(
					"//detlint:%s on field %s of %s must carry an inline justification",
					pf.ann.kind, name, tn)})
			}
			switch {
			case pf.ann.kind == annDurable && pf.wiped:
				out = append(out, Diagnostic{Pos: pf.wipePos, Msg: fmt.Sprintf(
					"OnCrash wipes field %s of %s, which is annotated //detlint:durable — amnesia: a crash would lose state the model says survives",
					name, tn)})
			case pf.ann.kind == annVolatile && !pf.wiped:
				out = append(out, Diagnostic{Pos: pf.decl, Msg: fmt.Sprintf(
					"OnCrash never wipes field %s of %s, which is annotated //detlint:volatile — ghost state: its contents would survive a crash the model says erases them",
					name, tn)})
			}
		}
		if pt.journaled != nil && !pt.journaled.justified {
			out = append(out, Diagnostic{Pos: pt.journaled.pos, Msg: fmt.Sprintf(
				"//detlint:journaled on %s must carry an inline justification", tn)})
		}
		for _, pf := range pt.fields {
			if pf.journal != nil && !pf.journal.justified {
				out = append(out, Diagnostic{Pos: pf.journal.pos, Msg: fmt.Sprintf(
					"//detlint:journal on field %s of %s must carry an inline justification",
					pf.v.Name(), tn)})
			}
		}
	}
	for _, pkg := range m.Pkgs {
		if !persistScope(m, pkg) {
			continue
		}
		for _, a := range info.anns[pkg] {
			if a.consumed {
				continue
			}
			out = append(out, Diagnostic{Pos: a.pos, Msg: fmt.Sprintf(
				"//detlint:%s attaches to no field or type of a sim.Recoverable implementor; persistence annotations only mean something on recoverable state",
				a.kind)})
		}
	}
	return out
}
