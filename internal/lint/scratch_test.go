package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// loadScratch type-checks a one-file throwaway module, so unit tests can
// probe the lockset layer and the journal response check without
// dragging in the fixture module load.
func loadScratch(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	for name, content := range map[string]string{
		"go.mod":     "module scratch\n\ngo 1.22\n",
		"scratch.go": src,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Load(dir)
	if err != nil {
		t.Fatalf("loading scratch module: %v", err)
	}
	pkg := m.Lookup("scratch")
	if pkg == nil {
		t.Fatal("scratch package not loaded")
	}
	return pkg
}

func declOf(t *testing.T, pkg *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("no function %s in scratch package", name)
	return nil
}

func firstReturn(t *testing.T, fd *ast.FuncDecl) *ast.ReturnStmt {
	t.Helper()
	var ret *ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok && ret == nil {
			ret = r
		}
		return ret == nil
	})
	if ret == nil {
		t.Fatalf("no return statement in %s", fd.Name.Name)
	}
	return ret
}

// TestSingleAssigned pins the journal response check's syntactic
// single-assignment test: a := local, a parameter and a range variable
// that are journaled and then returned keep the journaled value, and
// each stops qualifying once a reassignment, an ++ or an &r sits
// between the store and the return.
func TestSingleAssigned(t *testing.T) {
	pkg := loadScratch(t, `package scratch

type J struct{ last map[int]int }

func (j *J) local(x int) int {
	r := x * 2
	j.last[0] = r
	return r
}

func (j *J) param(r int) int {
	j.last[0] = r
	return r
}

func (j *J) ranged(xs []int) int {
	for _, r := range xs {
		j.last[0] = r
		return r
	}
	return 0
}

func (j *J) reassigned(x int) int {
	r := x
	j.last[0] = r
	r = x + 1
	return r
}

func (j *J) incremented(r int) int {
	j.last[0] = r
	r++
	return r
}

func (j *J) addressed(xs []int) int {
	for _, r := range xs {
		j.last[0] = r
		p := &r
		*p = 1
		return r
	}
	return 0
}
`)
	for _, c := range []struct {
		name string
		fn   string
		want bool
	}{
		{"local is single-assigned", "local", true},
		{"parameter is single-assigned", "param", true},
		{"range variable is single-assigned", "ranged", true},
		{"reassigned local is not", "reassigned", false},
		{"incremented parameter is not", "incremented", false},
		{"address-taken range variable is not", "addressed", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			fd := declOf(t, pkg, c.fn)
			// r is what the first return hands back.
			id := firstReturn(t, fd).Results[0].(*ast.Ident)
			if got := singleAssigned(pkg, fd.Body, pkg.Info.Uses[id].(*types.Var)); got != c.want {
				t.Errorf("%s: singleAssigned(r) = %v, want %v", c.fn, got, c.want)
			}
		})
	}
}

// guardedSelectors maps every selector expression evaluated in the
// function — including inside nested function literals — to the
// must-hold lockset at its statement. A literal body is analyzed with
// an empty entry set: it may run on another goroutine, so locks held by
// the enclosing function are not credited to it.
func guardedSelectors(pkg *Package, fd *ast.FuncDecl) map[*ast.SelectorExpr][]*types.Var {
	out := make(map[*ast.SelectorExpr][]*types.Var)
	for _, body := range FuncBodies(fd) {
		cfg := BuildCFG(body)
		lf := ComputeLockFacts(pkg, cfg)
		for _, b := range cfg.Blocks {
			for _, st := range b.Stmts {
				held, reached := lf.Before[st]
				if !reached {
					continue // unreachable block
				}
				inspectShallow(st, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if _, seen := out[sel]; !seen {
							out[sel] = held
						}
					}
					return true
				})
			}
		}
	}
	return out
}

// TestLocksetMustHold pins the lockset transfer semantics through
// guardedSelectors: a plain Lock/Unlock bracket guards only the span
// between them, a branch that may release drops the lock at the join
// (must-hold is the intersection), a deferred unlock does not kill,
// RLock counts as holding, and TryLock never generates.
func TestLocksetMustHold(t *testing.T) {
	pkg := loadScratch(t, `package scratch

import "sync"

type G struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func (g *G) bracket() {
	g.mu.Lock()
	g.n = 1
	g.mu.Unlock()
	g.n = 2
}

func (g *G) branchy(c bool) {
	g.mu.Lock()
	if c {
		g.mu.Unlock()
	}
	g.n = 3
}

func (g *G) deferred() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n = 4
}

func (g *G) reader() {
	g.rw.RLock()
	g.n = 5
	g.rw.RUnlock()
}

func (g *G) tentative() {
	if g.mu.TryLock() {
		g.n = 6
	}
}
`)

	// Each write to g.n is tagged by its assigned literal, so the guard
	// expectations are independent of statement order.
	wantGuards := map[string]int{"1": 1, "2": 0, "3": 0, "4": 1, "5": 1, "6": 0}
	for _, c := range []struct{ name, fn string }{
		{"bracket guards only its span", "bracket"},
		{"release on a branch drops the lock at the join", "branchy"},
		{"deferred unlock does not kill", "deferred"},
		{"RLock counts as holding", "reader"},
		{"TryLock never generates", "tentative"},
	} {
		t.Run(c.name, func(t *testing.T) {
			fd := declOf(t, pkg, c.fn)
			guards := guardedSelectors(pkg, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 {
					return true
				}
				sel, ok := as.Lhs[0].(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "n" {
					return true
				}
				lit, ok := as.Rhs[0].(*ast.BasicLit)
				if !ok {
					return true
				}
				want, tracked := wantGuards[lit.Value]
				if !tracked {
					t.Errorf("%s: untagged write g.n = %s", c.fn, lit.Value)
					return true
				}
				if got := len(guards[sel]); got != want {
					t.Errorf("%s: write g.n = %s holds %d locks, want %d", c.fn, lit.Value, got, want)
				}
				return true
			})
		})
	}
}

// TestFindingOrderTiebreak pins the canonical finding order: position
// first, then rule, then message — so two analyzers firing on the same
// statement always report in the same order.
func TestFindingOrderTiebreak(t *testing.T) {
	mk := func(file string, line int, rule, msg string) Diagnostic {
		d := Diagnostic{Rule: rule, Msg: msg}
		d.Pos.Filename = file
		d.Pos.Line = line
		return d
	}
	diags := []Diagnostic{
		{Pos: mk("b.go", 1, "z", "m").Pos, Rule: "z", Msg: "m"},
		mk("a.go", 2, "sharedstate", "beta"),
		mk("a.go", 2, "lockorder", "gamma"),
		mk("a.go", 2, "lockorder", "alpha"),
		mk("a.go", 1, "zzz", "last position wins over rule"),
	}
	sort.Slice(diags, func(i, j int) bool { return diagLess(diags[i], diags[j]) })
	got := make([]string, len(diags))
	for i, d := range diags {
		got[i] = d.Pos.Filename + "|" + d.Rule + "|" + d.Msg
	}
	want := []string{
		"a.go|zzz|last position wins over rule",
		"a.go|lockorder|alpha",
		"a.go|lockorder|gamma",
		"a.go|sharedstate|beta",
		"b.go|z|m",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("order[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}
