package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const stepLabel = "detobj/internal/lintfixture/hotallocbad.step"

// hotRun executes only the hotalloc rule over the shared fixture
// module and returns its diagnostics.
func hotRun(t *testing.T) []Diagnostic {
	t.Helper()
	loadFixtures(t)
	return Run(fixtureMod, []*Analyzer{AnalyzerHotAlloc()})
}

func countRule(diags []Diagnostic, fragment, rule string) int {
	n := 0
	for _, d := range inFile(diags, fragment) {
		if d.Rule == rule {
			n++
		}
	}
	return n
}

// TestHotBudgetSuppresses: an exact budget entry swallows a function's
// sites; the rest of the package still reports.
func TestHotBudgetSuppresses(t *testing.T) {
	loadFixtures(t)
	base := hotRun(t)
	baseStep := 0
	for _, d := range inFile(base, "hotallocbad") {
		if strings.Contains(d.Msg, "reachable from hotallocbad.Explore") {
			baseStep++
		}
	}
	if baseStep == 0 {
		t.Fatal("no unbudgeted findings in hotallocbad.step to begin with")
	}
	restore := injectHotBudgets(fixtureMod, &hotBudget{
		rule: hotAllocName, fn: stepLabel, count: baseStep,
		pos: token.Position{Filename: "<injected>", Line: 1},
	})
	defer restore()
	budgeted := Run(fixtureMod, []*Analyzer{AnalyzerHotAlloc()})
	for _, d := range inFile(budgeted, "hotallocbad") {
		if strings.Contains(d.Msg, "reachable from hotallocbad.Explore") {
			t.Errorf("budgeted step site still reported: %s", d)
		}
	}
	if got := countRule(budgeted, "hotallocbad", hotAllocName); got != countRule(base, "hotallocbad", hotAllocName)-baseStep {
		t.Errorf("budget suppressed the wrong number of findings: %d of %d", got, countRule(base, "hotallocbad", hotAllocName))
	}
}

// TestHotBudgetExceededAndStale: an under-sized budget tags every site
// with the excess; an over-sized one demands the baseline shrink; an
// entry matching nothing is stale outright, and so is a boxing entry
// whose function has allocation sites but no boxing site.
func TestHotBudgetExceededAndStale(t *testing.T) {
	loadFixtures(t)
	restore := injectHotBudgets(fixtureMod,
		&hotBudget{rule: hotAllocName, fn: stepLabel, count: 1,
			pos: token.Position{Filename: "<injected>", Line: 1}},
		&hotBudget{rule: hotAllocName, fn: "detobj/internal/lintfixture/hotallocbad.Sweep", count: 9,
			pos: token.Position{Filename: "<injected>", Line: 2}},
		&hotBudget{rule: hotAllocName, fn: "detobj/internal/lintfixture/nowhere.Gone", count: 2,
			pos: token.Position{Filename: "<injected>", Line: 3}},
		&hotBudget{rule: boxingName, fn: stepLabel, count: 2,
			pos: token.Position{Filename: "<injected>", Line: 4}},
	)
	defer restore()
	diags := Run(fixtureMod, []*Analyzer{AnalyzerHotAlloc()})
	var exceeded, shrink, stale bool
	for _, d := range diags {
		switch {
		case strings.Contains(d.Msg, "exceed the "+stepLabel+" budget of 1"):
			exceeded = true
		case strings.Contains(d.Msg, "budget is 9; lower the entry"):
			shrink = true
		case strings.Contains(d.Msg, "nowhere.Gone has no hot allocation site"):
			stale = true
		}
	}
	if !exceeded {
		t.Error("under-sized budget did not tag the excess sites")
	}
	if !shrink {
		t.Error("over-sized budget did not demand the baseline shrink")
	}
	if !stale {
		t.Error("entry matching no function was not judged stale")
	}
	var boxingStale bool
	for _, d := range Run(fixtureMod, []*Analyzer{AnalyzerBoxing()}) {
		if strings.Contains(d.Msg, "stale boxing budget: "+stepLabel+" has no hot allocation site(s) this run; remove the entry") {
			boxingStale = true
		}
	}
	if !boxingStale {
		t.Error("boxing entry of a function with no boxing site was not judged stale")
	}
}

// TestHotBudgetPartialRun pins the -rules contract for budgets,
// mirroring allowaudit: a run that does not exercise a hot rule must
// say nothing about that rule's budget entries.
func TestHotBudgetPartialRun(t *testing.T) {
	loadFixtures(t)
	restore := injectHotBudgets(fixtureMod,
		&hotBudget{rule: hotAllocName, fn: "detobj/internal/lintfixture/nowhere.Gone", count: 2,
			pos: token.Position{Filename: "<injected>", Line: 1}},
		&hotBudget{rule: boxingName, fn: "detobj/internal/lintfixture/nowhere.Gone", count: 2,
			pos: token.Position{Filename: "<injected>", Line: 2}},
	)
	defer restore()
	// Neither hot rule runs: both stale entries must go unjudged.
	unjudged := Run(fixtureMod, []*Analyzer{AnalyzerSharedState()})
	for _, d := range unjudged {
		if strings.Contains(d.Msg, "nowhere.Gone") {
			t.Errorf("partial run without hot rules judged a budget: %s", d)
		}
	}
	// Only hotalloc runs: its entry is judged, boxing's is not.
	half := Run(fixtureMod, []*Analyzer{AnalyzerHotAlloc()})
	var judgedHotalloc, judgedBoxing bool
	for _, d := range half {
		if strings.Contains(d.Msg, "stale hotalloc budget: detobj/internal/lintfixture/nowhere.Gone") {
			judgedHotalloc = true
		}
		if strings.Contains(d.Msg, "stale boxing budget") {
			judgedBoxing = true
		}
	}
	if !judgedHotalloc {
		t.Error("hotalloc run did not judge its own stale budget")
	}
	if judgedBoxing {
		t.Error("hotalloc run judged a boxing budget it cannot vouch for")
	}
}

// TestRecursionChargesBody pins hotpath.go's recursion rule on a
// throwaway module. A function that calls itself from inside a loop
// visits one tree node per call, so its whole body runs one loop level
// deeper than its hot depth: its own allocation outside the loop is a
// depth-1 site, and so is a call it makes outside the loop. A function
// that calls itself outside any loop is a chain, not a tree, and keeps
// its depth, as does the root.
func TestRecursionChargesBody(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"internal/tree/tree.go": `package tree

type Node struct{ ID int }

//detlint:hot
func Root(n int) (*Node, *Node) { return walk(n), chain(n) }

func walk(n int) *Node {
	node := &Node{ID: n}
	for i := 0; i < n; i++ {
		walk(n - 1)
	}
	leaf(n)
	return node
}

func leaf(n int) *Node { return &Node{ID: n} }

func chain(n int) *Node {
	if n == 0 {
		return &Node{}
	}
	return chain(n - 1)
}
`,
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Load(dir)
	if err != nil {
		t.Fatalf("loading scratch module: %v", err)
	}
	h := m.hotPaths()
	byName := make(map[string]*FuncNode)
	for _, n := range m.CallGraph().sortedNodes() {
		byName[n.Decl.Name.Name] = n
	}
	for _, c := range []struct {
		name      string
		depth     int
		recursive bool
	}{
		{"Root", 0, false},
		{"walk", 1, true},
		{"leaf", 1, false},
		{"chain", 0, false},
	} {
		n := byName[c.name]
		if n == nil {
			t.Fatalf("no call-graph node for %s", c.name)
		}
		if d, ok := h.funcDepth(n); !ok || d != c.depth {
			t.Errorf("funcDepth(%s) = %d, %v; want %d, true", c.name, d, ok, c.depth)
		}
		if h.recursive[n] != c.recursive {
			t.Errorf("%s recursive = %v, want %v", c.name, h.recursive[n], c.recursive)
		}
	}
	var got []string
	for _, d := range Run(m, []*Analyzer{AnalyzerHotAlloc()}) {
		got = append(got, d.Msg)
	}
	want := []string{
		"escaping composite literal (Node) in hot loop in tree.walk (reachable from tree.Root) (depth 1,",
		"escaping composite literal (Node) in hot loop in tree.leaf (reachable from tree.Root) (depth 1,",
	}
	if len(got) != len(want) {
		t.Fatalf("hotalloc findings = %q, want %d", got, len(want))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("finding %d = %q, want prefix %q", i, got[i], want[i])
		}
	}
}
