package lint

// ssa.go converts a function body into an SSA-lite def-use value graph
// on top of the CFG. It is "lite" in the sense that no instruction
// stream is renamed: variables keep their types.Var identity, and the
// graph answers one question — *which value can this variable hold at
// this statement* — through reaching-definition lookups with φ-nodes at
// CFG joins (maximal φ-placement; every join block merges, dominance
// frontiers are not computed). That is exactly the granularity the
// decisionflow rule needs to taint-track a decided value back to its
// sources, and nothing a lint does needs more.
//
// The builder is deliberately conservative about aliasing: a variable
// whose address is taken, or that is written from inside a nested
// function literal, is opaque — lookups return OpaqueVal, which taint
// tracing treats as a clean leaf. The gap keeps the rule quiet rather
// than wrong-side noisy, and the repository style (no pointer juggling
// on decision paths) keeps it small.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Value is one node of a function's SSA-lite value graph.
type Value interface{ value() }

// ParamVal is the incoming value of a parameter, receiver, or named
// result at function entry.
type ParamVal struct {
	// V is the parameter's object.
	V *types.Var
}

// ExprVal is the value an expression evaluates to, in the context of
// the block statement that evaluates it (the context fixes which
// definitions reach identifiers inside E).
type ExprVal struct {
	// E is the defining expression.
	E ast.Expr
	// At is the block statement E is evaluated in.
	At ast.Stmt
}

// PhiVal merges the values a variable can hold when control reaches a
// CFG join from different predecessors.
type PhiVal struct {
	// Var is the merged variable.
	Var *types.Var
	// Block is the join block the φ belongs to.
	Block *Block
	// Ops are the incoming values, one per predecessor edge, in
	// predecessor order. A loop-carried φ may contain itself.
	Ops []Value
}

// RangeVal is a key or value variable bound by a range statement; the
// ranged source's type decides whether the binding is order-sensitive
// (maps) or deterministic (slices, arrays, strings, integers).
type RangeVal struct {
	// S is the range statement.
	S *ast.RangeStmt
	// IsKey distinguishes the key binding from the value binding.
	IsKey bool
}

// MergeVal joins several contributing values without a CFG join: an
// augmented assignment (x += y) merges the old binding with the
// operand.
type MergeVal struct {
	// Ops are the contributing values.
	Ops []Value
	// Op is the augmented-assignment token (token.ADD_ASSIGN for +=).
	Op token.Token
	// Var is the accumulated variable; its type decides whether the
	// fold is commutative (numeric +=) or ordered (string +=).
	Var *types.Var
}

// OpaqueVal is a value the builder cannot track: an address-taken or
// closure-written variable, a zero value, an unreachable lookup. Taint
// tracing treats it as a clean leaf.
type OpaqueVal struct {
	// Why records the reason, for debugging.
	Why string
}

func (ParamVal) value()  {}
func (ExprVal) value()   {}
func (*PhiVal) value()   {}
func (RangeVal) value()  {}
func (MergeVal) value()  {}
func (OpaqueVal) value() {}

// FuncSSA is the SSA-lite value graph of one declared function body.
type FuncSSA struct {
	// Pkg is the package the function belongs to.
	Pkg *Package
	// CFG is the underlying control-flow graph.
	CFG *CFG

	loc    map[ast.Stmt]stmtLoc
	defs   map[*Block][]ssaDef
	opaque map[*types.Var]bool
	params map[*types.Var]bool
	phis   map[phiKey]*PhiVal
}

type stmtLoc struct {
	b   *Block
	idx int
}

// ssaDef is one shallow definition inside a block. An augment def (x +=
// y) contributes its value on top of the binding reaching it instead of
// replacing it.
type ssaDef struct {
	idx     int
	v       *types.Var
	val     Value
	augment bool
	op      token.Token
}

type phiKey struct {
	b *Block
	v *types.Var
}

// BuildSSA builds the value graph for a declared function. Nested
// function literals are opaque (their bodies are separate CFGs and are
// not modeled).
func BuildSSA(pkg *Package, decl *ast.FuncDecl) *FuncSSA {
	s := &FuncSSA{
		Pkg:    pkg,
		CFG:    BuildCFG(decl.Body),
		loc:    make(map[ast.Stmt]stmtLoc),
		defs:   make(map[*Block][]ssaDef),
		opaque: make(map[*types.Var]bool),
		params: make(map[*types.Var]bool),
		phis:   make(map[phiKey]*PhiVal),
	}
	s.collectParams(decl.Recv, decl.Type)
	s.collectOpaque(decl.Body)
	for _, b := range s.CFG.Blocks {
		for i, st := range b.Stmts {
			if _, seen := s.loc[st]; !seen {
				s.loc[st] = stmtLoc{b: b, idx: i}
			}
			s.defs[b] = append(s.defs[b], s.defsOf(st, i)...)
		}
	}
	return s
}

// collectParams registers the receiver, parameters, and named results.
func (s *FuncSSA) collectParams(recv *ast.FieldList, typ *ast.FuncType) {
	fields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := s.Pkg.Info.Defs[name].(*types.Var); ok {
					s.params[v] = true
				}
			}
		}
	}
	fields(recv)
	fields(typ.Params)
	fields(typ.Results)
}

// collectOpaque marks variables the graph cannot track: address-taken
// anywhere in the body, or assigned from inside a nested function
// literal (the literal runs at an unknown point relative to the
// enclosing statements).
func (s *FuncSSA) collectOpaque(body *ast.BlockStmt) {
	markLHS := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := s.Pkg.Info.Uses[id].(*types.Var); ok {
				s.opaque[v] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markLHS(n.X)
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.AssignStmt:
					for _, l := range x.Lhs {
						markLHS(l)
					}
				case *ast.IncDecStmt:
					markLHS(x.X)
				}
				return true
			})
			return false
		}
		return true
	})
}

// defsOf extracts the shallow definitions a block member contributes.
func (s *FuncSSA) defsOf(st ast.Stmt, idx int) []ssaDef {
	var out []ssaDef
	defVar := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if v, ok := s.Pkg.Info.Defs[id].(*types.Var); ok {
			return v
		}
		if v, ok := s.Pkg.Info.Uses[id].(*types.Var); ok {
			return v
		}
		return nil
	}
	switch st := st.(type) {
	case *ast.AssignStmt:
		switch st.Tok {
		case token.ASSIGN, token.DEFINE:
			for i, l := range st.Lhs {
				v := defVar(l)
				if v == nil {
					continue
				}
				rhs := st.Rhs[0]
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[i]
				}
				out = append(out, ssaDef{idx: idx, v: v, val: ExprVal{E: rhs, At: st}})
			}
		default: // augmented assignment: x op= y
			if v := defVar(st.Lhs[0]); v != nil {
				out = append(out, ssaDef{idx: idx, v: v,
					val: ExprVal{E: st.Rhs[0], At: st}, augment: true, op: st.Tok})
			}
		}
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return nil
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				v, ok := s.Pkg.Info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				var val Value = OpaqueVal{Why: "zero value"}
				if len(vs.Values) > 0 {
					rhs := vs.Values[0]
					if len(vs.Values) == len(vs.Names) {
						rhs = vs.Values[i]
					}
					val = ExprVal{E: rhs, At: st}
				}
				out = append(out, ssaDef{idx: idx, v: v, val: val})
			}
		}
	case *ast.RangeStmt:
		if v := defVar(st.Key); v != nil {
			out = append(out, ssaDef{idx: idx, v: v, val: RangeVal{S: st, IsKey: true}})
		}
		if st.Value != nil {
			if v := defVar(st.Value); v != nil {
				out = append(out, ssaDef{idx: idx, v: v, val: RangeVal{S: st}})
			}
		}
	}
	return out
}

// BindingAt returns the value the variable can hold immediately before
// the given block statement executes. Statements not in the CFG (inside
// function literals) and untracked variables yield OpaqueVal.
func (s *FuncSSA) BindingAt(st ast.Stmt, v *types.Var) Value {
	if s.opaque[v] {
		return OpaqueVal{Why: "address-taken or closure-written"}
	}
	loc, ok := s.loc[st]
	if !ok {
		return OpaqueVal{Why: "statement outside the function CFG"}
	}
	return s.lookup(loc.b, loc.idx, v)
}

const blockEnd = 1 << 30

// lookup finds the reaching value of v before statement index `before`
// in block b, walking into predecessors and materializing φ-nodes at
// joins.
func (s *FuncSSA) lookup(b *Block, before int, v *types.Var) Value {
	defs := s.defs[b]
	for i := len(defs) - 1; i >= 0; i-- {
		d := defs[i]
		if d.idx >= before || d.v != v {
			continue
		}
		if !d.augment {
			return d.val
		}
		return MergeVal{Ops: []Value{d.val, s.lookup(b, d.idx, v)}, Op: d.op, Var: v}
	}
	switch len(b.Preds) {
	case 0:
		if s.params[v] {
			return ParamVal{V: v}
		}
		return OpaqueVal{Why: "no reaching definition"}
	case 1:
		return s.lookup(b.Preds[0], blockEnd, v)
	default:
		key := phiKey{b: b, v: v}
		if phi, ok := s.phis[key]; ok {
			return phi
		}
		phi := &PhiVal{Var: v, Block: b}
		s.phis[key] = phi
		for _, p := range b.Preds {
			phi.Ops = append(phi.Ops, s.lookup(p, blockEnd, v))
		}
		return phi
	}
}
