package lint

// cfg.go builds a lightweight per-function control-flow graph. The
// analyzers need far less than a compiler does — no SSA, no dominance —
// but strictly more than syntax: which statements form loops, whether a
// loop's body can leave the function (return) or the loop (break), and
// a linear block order that preserves execution positions. Blocks hold
// statements in source order; edges cover if/for/range/switch/select,
// break/continue (labeled and not), and returns. goto is treated as a
// terminator (the repository bans it stylistically; the CFG stays
// conservative if one appears).

import (
	"go/ast"
	"go/token"
)

// CFG is the control-flow graph of one function body (a declared
// function or a function literal).
type CFG struct {
	// Body is the function body the graph covers.
	Body *ast.BlockStmt
	// Entry is the first block executed.
	Entry *Block
	// Blocks lists every block in creation (roughly source) order.
	Blocks []*Block
	// AllLoops lists every for/range statement in the body, outermost
	// first, with exit information attached.
	AllLoops []*Loop
}

// Block is a straight-line sequence of statements with successor edges.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Stmts are the block's statements in source order. Control
	// statements (if/for/switch) appear as the last statement of the
	// block that evaluates their condition.
	Stmts []ast.Stmt
	// Succs are the possible next blocks.
	Succs []*Block
}

// Loop describes one for or range statement.
type Loop struct {
	// Stmt is the *ast.ForStmt or *ast.RangeStmt.
	Stmt ast.Stmt
	// HasBreak reports a break statement targeting this loop.
	HasBreak bool
	// HasReturn reports a return statement anywhere inside the body
	// (including nested loops, excluding nested function literals).
	HasReturn bool
}

// BuildCFG constructs the graph for a function body. Nested function
// literals are opaque: their statements belong to their own CFG (use
// FuncBodies to enumerate them).
func BuildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{Body: body}
	b := &cfgBuilder{g: g, labels: make(map[string]*frame)}
	g.Entry = b.newBlock()
	b.cur = g.Entry
	b.stmtList(body.List)
	return g
}

// FuncBodies returns the body of fn together with the bodies of every
// function literal nested inside it, outermost first. Each body gets
// its own CFG; a literal's loops are analyzed in the context of the
// enclosing declaration.
func FuncBodies(fn *ast.FuncDecl) []*ast.BlockStmt {
	if fn.Body == nil {
		return nil
	}
	out := []*ast.BlockStmt{fn.Body}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit.Body)
		}
		return true
	})
	return out
}

// frame tracks one enclosing breakable/continuable construct.
type frame struct {
	loop *Loop // nil for switch/select frames
	// brk is where break jumps; cont where continue jumps (nil for
	// switch/select frames).
	brk, cont *Block
}

type cfgBuilder struct {
	g      *CFG
	cur    *Block
	frames []*frame
	labels map[string]*frame // label -> frame of the labeled loop
	// pendingLabel names the label attached to the next loop statement.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func link(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// terminate ends the current block with no fallthrough successor; the
// following statements (if any) start an unreachable block.
func (b *cfgBuilder) terminate() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		b.cur.Stmts = append(b.cur.Stmts, s)
		cond := b.cur
		then := b.newBlock()
		link(cond, then)
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		var elseEnd *Block
		if s.Else != nil {
			els := b.newBlock()
			link(cond, els)
			b.cur = els
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		join := b.newBlock()
		link(thenEnd, join)
		if s.Else != nil {
			link(elseEnd, join)
		} else {
			link(cond, join)
		}
		b.cur = join
	case *ast.ForStmt:
		loop := &Loop{Stmt: s}
		b.g.AllLoops = append(b.g.AllLoops, loop)
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		head := b.newBlock()
		link(b.cur, head)
		head.Stmts = append(head.Stmts, s)
		body := b.newBlock()
		exit := b.newBlock()
		link(head, body)
		if s.Cond != nil {
			link(head, exit)
		}
		b.pushLoop(loop, exit, head, s)
		b.cur = body
		b.stmt(s.Body)
		if s.Post != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Post)
		}
		link(b.cur, head)
		b.popFrame()
		b.cur = exit
	case *ast.RangeStmt:
		loop := &Loop{Stmt: s}
		b.g.AllLoops = append(b.g.AllLoops, loop)
		head := b.newBlock()
		link(b.cur, head)
		head.Stmts = append(head.Stmts, s)
		body := b.newBlock()
		exit := b.newBlock()
		link(head, body)
		link(head, exit) // a range always terminates when the source drains
		b.pushLoop(loop, exit, head, s)
		b.cur = body
		b.stmt(s.Body)
		link(b.cur, head)
		b.popFrame()
		b.cur = exit
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		cond := b.cur
		exit := b.newBlock()
		b.frames = append(b.frames, &frame{brk: exit})
		var body *ast.BlockStmt
		hasDefault := false
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			body = sw.Body
		case *ast.TypeSwitchStmt:
			body = sw.Body
		case *ast.SelectStmt:
			body = sw.Body
		}
		for _, cc := range body.List {
			var stmts []ast.Stmt
			switch cc := cc.(type) {
			case *ast.CaseClause:
				// Case expressions are evaluated when the clause is
				// considered; wrap each in a synthetic ExprStmt so the
				// dataflow passes see the accesses they perform.
				for _, e := range cc.List {
					stmts = append(stmts, &ast.ExprStmt{X: e})
				}
				stmts = append(stmts, cc.Body...)
				hasDefault = hasDefault || cc.List == nil
			case *ast.CommClause:
				// The communication itself (v := <-ch, ch <- v) executes
				// when the case fires; give it a block position so the
				// dataflow passes see its definitions and accesses.
				if cc.Comm != nil {
					stmts = append([]ast.Stmt{cc.Comm}, cc.Body...)
				} else {
					stmts = cc.Body
				}
				hasDefault = hasDefault || cc.Comm == nil
			}
			cb := b.newBlock()
			link(cond, cb)
			b.cur = cb
			b.stmtList(stmts)
			link(b.cur, exit)
		}
		if !hasDefault {
			link(cond, exit)
		}
		b.popFrame()
		b.cur = exit
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.BranchStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		switch s.Tok {
		case token.BREAK:
			if f := b.branchTarget(s, false); f != nil {
				if f.loop != nil {
					f.loop.HasBreak = true
				}
				link(b.cur, f.brk)
			}
			b.terminate()
		case token.CONTINUE:
			if f := b.branchTarget(s, true); f != nil {
				link(b.cur, f.cont)
			}
			b.terminate()
		case token.GOTO:
			b.terminate()
		case token.FALLTHROUGH:
			// Falls into the next case body; the shared exit edge already
			// over-approximates this.
		}
	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		for _, f := range b.frames {
			if f.loop != nil {
				f.loop.HasReturn = true
			}
		}
		b.terminate()
	default:
		// Plain statements: decl, assign, expr, send, inc/dec, defer, go,
		// empty. A go/defer'd function literal's own body is a separate
		// CFG (FuncBodies); here it is a single opaque statement.
		b.cur.Stmts = append(b.cur.Stmts, s)
	}
}

// pushLoop registers a loop frame and binds a pending label to it.
func (b *cfgBuilder) pushLoop(l *Loop, brk, cont *Block, stmt ast.Stmt) {
	f := &frame{loop: l, brk: brk, cont: cont}
	b.frames = append(b.frames, f)
	if b.pendingLabel != "" {
		b.labels[b.pendingLabel] = f
		b.pendingLabel = ""
	}
}

func (b *cfgBuilder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

// shallowParts returns the sub-nodes of a block-member statement that
// are evaluated at the statement's position in its block. Control
// statements contribute only the expressions their block evaluates (an
// if's condition, a range's source); their bodies are members of other
// blocks and must not be revisited here. The builder appends if/for
// Init and for Post statements as separate members, so they are not
// parts of their parent.
func shallowParts(s ast.Stmt) []ast.Node {
	switch s := s.(type) {
	case *ast.IfStmt:
		return []ast.Node{s.Cond}
	case *ast.ForStmt:
		if s.Cond != nil {
			return []ast.Node{s.Cond}
		}
		return nil
	case *ast.RangeStmt:
		return []ast.Node{s.X}
	case *ast.SwitchStmt:
		var out []ast.Node
		if s.Init != nil {
			out = append(out, s.Init)
		}
		if s.Tag != nil {
			out = append(out, s.Tag)
		}
		return out
	case *ast.TypeSwitchStmt:
		var out []ast.Node
		if s.Init != nil {
			out = append(out, s.Init)
		}
		out = append(out, s.Assign)
		return out
	case *ast.SelectStmt:
		return nil
	default:
		return []ast.Node{s}
	}
}

// inspectShallow applies fn to every node evaluated at the statement's
// block position, skipping nested function-literal bodies (they have
// their own CFGs) and the bodies of control statements (they are
// members of other blocks).
func inspectShallow(s ast.Stmt, fn func(ast.Node) bool) {
	for _, part := range shallowParts(s) {
		ast.Inspect(part, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			return fn(n)
		})
	}
}

// branchTarget resolves the frame a break/continue targets: the labeled
// loop, or the innermost breakable (break) / loop (continue).
func (b *cfgBuilder) branchTarget(s *ast.BranchStmt, needLoop bool) *frame {
	if s.Label != nil {
		return b.labels[s.Label.Name]
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if needLoop && f.loop == nil {
			continue
		}
		return f
	}
	return nil
}
