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
// entry matching nothing is stale outright.
func TestHotBudgetExceededAndStale(t *testing.T) {
	loadFixtures(t)
	restore := injectHotBudgets(fixtureMod,
		&hotBudget{rule: hotAllocName, fn: stepLabel, count: 1,
			pos: token.Position{Filename: "<injected>", Line: 1}},
		&hotBudget{rule: hotAllocName, fn: "detobj/internal/lintfixture/hotallocbad.Sweep", count: 9,
			pos: token.Position{Filename: "<injected>", Line: 2}},
		&hotBudget{rule: hotAllocName, fn: "detobj/internal/lintfixture/nowhere.Gone", count: 2,
			pos: token.Position{Filename: "<injected>", Line: 3}},
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

// TestCacheKeyVersionBump: bumping the detlint version must change the
// cache key of an otherwise untouched tree, so stale caches
// self-invalidate on upgrade.
func TestCacheKeyVersionBump(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module cachetest\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte("package cachetest\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	analyzers := Analyzers()
	current, err := CacheKey(dir, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := cacheKeyVersioned(dir, analyzers, detlintVersion)
	if err != nil {
		t.Fatal(err)
	}
	if current != pinned {
		t.Error("CacheKey does not pin the current version")
	}
	old, err := cacheKeyVersioned(dir, analyzers, "detlint/3.0.0")
	if err != nil {
		t.Fatal(err)
	}
	if old == current {
		t.Error("version bump did not change the cache key")
	}
}

// TestCacheKeyCoversHotBudgets: editing .detlint.hot must invalidate
// the cache — budgets change findings.
func TestCacheKeyCoversHotBudgets(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module cachetest\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	analyzers := Analyzers()
	before, err := CacheKey(dir, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	entry := []byte("hotalloc cachetest.f 1\n")
	if err := os.WriteFile(filepath.Join(dir, HotBudgetFileName), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	after, err := CacheKey(dir, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Errorf("%s is not part of the cache key", HotBudgetFileName)
	}
}

// TestHotReportRanking: the report ranks the fixture offenders and is
// byte-stable across builds.
func TestHotReportRanking(t *testing.T) {
	loadFixtures(t)
	rep := BuildHotReport(fixtureMod)
	if len(rep.Functions) == 0 {
		t.Fatal("hot report is empty")
	}
	for i := 1; i < len(rep.Functions); i++ {
		a, b := rep.Functions[i-1], rep.Functions[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Function > b.Function) {
			t.Errorf("ranking out of order at %d: %s(%d) before %s(%d)", i, a.Function, a.Score, b.Function, b.Score)
		}
	}
	found := false
	for _, f := range rep.Functions {
		if f.Function == "detobj/internal/lintfixture/hotallocbad.Explore" {
			found = true
			if f.Score < 10 {
				t.Errorf("Explore score = %d, want >= 10 (depth-1 sites)", f.Score)
			}
		}
	}
	if !found {
		t.Error("hotallocbad.Explore missing from the report")
	}
	b1, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := BuildHotReport(fixtureMod).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("hot report JSON is not byte-stable across builds")
	}
}

// TestBenchAllocRefsDegradation: the bench cross-reference degrades
// with an explanatory note instead of a silent hole — no BENCH_N.json,
// garbage JSON, a file with no alloc figures — and stays note-free on
// a healthy file. The newest-numbered file must win.
func TestBenchAllocRefsDegradation(t *testing.T) {
	dir := t.TempDir()
	refs, note := benchAllocRefs(dir)
	if refs != nil || !strings.Contains(note, "no committed BENCH_N.json") {
		t.Errorf("empty dir: refs=%v note=%q, want nil refs and a missing-file note", refs, note)
	}

	if err := os.WriteFile(filepath.Join(dir, "BENCH_3.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	refs, note = benchAllocRefs(dir)
	if refs != nil || !strings.Contains(note, "BENCH_3.json is not parsable") {
		t.Errorf("garbage file: refs=%v note=%q, want nil refs and a parse note", refs, note)
	}

	if err := os.WriteFile(filepath.Join(dir, "BENCH_4.json"), []byte(`{"benchmarks":[{"name":"BenchmarkX","allocs_per_op":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	refs, note = benchAllocRefs(dir)
	if refs != nil || !strings.Contains(note, "BENCH_4.json records no allocs/op") {
		t.Errorf("zero-alloc file: refs=%v note=%q, want nil refs and an empty-figures note", refs, note)
	}

	if err := os.WriteFile(filepath.Join(dir, "BENCH_10.json"), []byte(`{"benchmarks":[{"name":"BenchmarkY","allocs_per_op":7}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	refs, note = benchAllocRefs(dir)
	if note != "" {
		t.Errorf("healthy file: unexpected note %q", note)
	}
	if len(refs) != 1 || refs[0].Source != "BENCH_10.json" || refs[0].Name != "BenchmarkY" || refs[0].AllocsPerOp != 7 {
		t.Errorf("healthy file: refs=%v, want one BENCH_10.json/BenchmarkY/7 ref", refs)
	}
}
