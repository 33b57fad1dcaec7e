package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadScratchModule type-checks a one-file throwaway module, so unit
// tests can probe the allow audit and the journal response check
// without dragging in the fixture module load.
func loadScratchModule(t *testing.T, src string) *Module {
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
	return m
}

// loadScratch is loadScratchModule's one package.
func loadScratch(t *testing.T, src string) *Package {
	t.Helper()
	pkg := loadScratchModule(t, src).Lookup("scratch")
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

// TestAllowNamingRetiredRule pins what makes retiring a rule safe: a
// mark naming no analyzer can never suppress, so every run of allowaudit
// judges it stale, the full suite and a subset alike, while the alloc
// and recovery gates' rule lists, which do not run allowaudit, say
// nothing about it.
func TestAllowNamingRetiredRule(t *testing.T) {
	m := loadScratchModule(t, `package scratch

//detlint:allow lockorder the rule this names is gone
func F() {}
`)
	const stale = "stale detlint:allow (lockorder)"
	for _, c := range []struct {
		name      string
		analyzers []*Analyzer
		wantStale bool
	}{
		{"full suite", Analyzers(), true},
		{"nodeterminism and allowaudit", []*Analyzer{AnalyzerNoDeterminism(), AnalyzerAllowAudit()}, true},
		{"hot", []*Analyzer{AnalyzerHotAlloc(), AnalyzerBoxing()}, false},
		{"recovery", []*Analyzer{AnalyzerPersistSplit(), AnalyzerJournalDiscipline(), AnalyzerRestartCoverage()}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			diags := Run(m, c.analyzers)
			if !c.wantStale {
				for _, d := range diags {
					t.Errorf("unexpected finding: %s", d)
				}
				return
			}
			if len(diags) != 1 || diags[0].Rule != allowAuditName || !strings.HasPrefix(diags[0].Msg, stale) {
				t.Errorf("findings %v, want one %s finding %q", diags, allowAuditName, stale)
			}
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
