package lint

import (
	"strings"
	"sync"
	"testing"
)

// The fixture module is the real repository with the testdata packages
// grafted in under internal/ (so the scope rules apply to them). Loading
// type-checks the whole module through the source importer, which takes
// a few seconds — share one load across all tests.
var (
	fixtureOnce  sync.Once
	fixtureMod   *Module
	fixtureDiags []Diagnostic
	fixtureErr   error
)

func loadFixtures(t *testing.T) []Diagnostic {
	t.Helper()
	fixtureOnce.Do(func() {
		m, err := LoadWithExtra("../..", map[string]string{
			"detobj/internal/lintfixture/nodetbad":      "testdata/src/nodetbad",
			"detobj/internal/lintfixture/nodetok":       "testdata/src/nodetok",
			"detobj/internal/lintfixture/puritybad":     "testdata/src/puritybad",
			"detobj/internal/lintfixture/purityok":      "testdata/src/purityok",
			"detobj/internal/lintfixture/hangbad":       "testdata/src/hangbad",
			"detobj/internal/lintfixture/hangok":        "testdata/src/hangok",
			"detobj/internal/lintfixture/schedbad":      "testdata/src/schedbad",
			"detobj/internal/lintfixture/schedok":       "testdata/src/schedok",
			"detobj/internal/lintfixture/boundedbad":    "testdata/src/boundedbad",
			"detobj/internal/lintfixture/boundedok":     "testdata/src/boundedok",
			"detobj/internal/lintfixture/sharedbad":     "testdata/src/sharedbad",
			"detobj/internal/lintfixture/sharedok":      "testdata/src/sharedok",
			"detobj/internal/lintfixture/injectbad":     "testdata/src/injectbad",
			"detobj/internal/lintfixture/injectok":      "testdata/src/injectok",
			"detobj/internal/lintfixture/restartbad":    "testdata/src/restartbad",
			"detobj/internal/lintfixture/restartok":     "testdata/src/restartok",
			"detobj/internal/lintfixture/lockbad":       "testdata/src/lockbad",
			"detobj/internal/lintfixture/lockok":        "testdata/src/lockok",
			"detobj/internal/lintfixture/flowbad":       "testdata/src/flowbad",
			"detobj/internal/lintfixture/flowok":        "testdata/src/flowok",
			"detobj/internal/lintfixture/auditbad":      "testdata/src/auditbad",
			"detobj/internal/lintfixture/auditok":       "testdata/src/auditok",
			"detobj/internal/lintfixture/embedbad":      "testdata/src/embedbad",
			"detobj/internal/lintfixture/hotallocbad":   "testdata/src/hotallocbad",
			"detobj/internal/lintfixture/hotallocok":    "testdata/src/hotallocok",
			"detobj/internal/lintfixture/boxbad":        "testdata/src/boxbad",
			"detobj/internal/lintfixture/boxok":         "testdata/src/boxok",
			"detobj/internal/lintfixture/arenabad":      "testdata/src/arenabad",
			"detobj/internal/lintfixture/arenaok":       "testdata/src/arenaok",
			"detobj/internal/lintfixture/persistbad":    "testdata/src/persistbad",
			"detobj/internal/lintfixture/persistok":     "testdata/src/persistok",
			"detobj/internal/lintfixture/recreadbad":    "testdata/src/recreadbad",
			"detobj/internal/lintfixture/recreadok":     "testdata/src/recreadok",
			"detobj/internal/lintfixture/journalbad":    "testdata/src/journalbad",
			"detobj/internal/lintfixture/journalok":     "testdata/src/journalok",
			"detobj/internal/lintfixture/restartcovbad": "testdata/src/restartcovbad",
			"detobj/internal/lintfixture/restartcovok":  "testdata/src/restartcovok",
			"detobj/internal/lintfixture/slotbad":       "testdata/src/slotbad",
			"detobj/internal/lintfixture/slotok":        "testdata/src/slotok",
		})
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureMod = m
		fixtureDiags = Run(m, Analyzers())
	})
	if fixtureErr != nil {
		t.Fatalf("loading module with fixtures: %v", fixtureErr)
	}
	return fixtureDiags
}

// inFile filters diagnostics to those whose position is in a file whose
// path contains the fragment.
func inFile(diags []Diagnostic, fragment string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, fragment) {
			out = append(out, d)
		}
	}
	return out
}

func TestFixturesFlagSeededViolations(t *testing.T) {
	diags := loadFixtures(t)
	expect := []struct {
		file, rule, msg string
	}{
		{"nodetbad", "nodeterminism", "time.Now"},
		{"nodetbad", "nodeterminism", "time.Since"},
		{"nodetbad", "nodeterminism", "rand.Intn"},
		{"nodetbad", "nodeterminism", "select over multiple channels"},
		{"nodetbad", "nodeterminism", "goroutine spawn"},
		{"nodetbad", "nodeterminism", "order-sensitive body"},
		{"nodetbad", "nodeterminism", "never sorts"},
		{"nodetbad", "allow", "justification"},
		{"puritybad", "objectpurity", "must not retain inv.Args"},
		{"puritybad", "objectpurity", "mutates package-level state"},
		{"puritybad", "objectpurity", "performs I/O (fmt.Println)"},
		{"hangbad", "hangsemantics", "constructs an error (fmt.Errorf)"},
		{"hangbad", "hangsemantics", "constructs an error (errors.New)"},
		{"hangbad", "hangsemantics", "responds with an error value"},
		{"hangbad", "hangsemantics", "bounded-use violation surfaced as error ErrSlotUsed"},
		{"schedbad", "schedulecoverage", "only under the default round-robin schedule"},
		{"boundedbad", "boundedloop", "can neither exit"},
		{"boundedbad", "boundedloop", "spins until shared state changes"},
		{"boundedbad", "boundedloop", "ranges over a channel"},
		{"boundedbad", "boundedloop", "retries without a bounded counter"},
		{"boundedbad", "boundedloop", "reachable from boundedbad.(Obj).Propose"},
		{"sharedbad", "sharedstate", "field val of sharedbad.Gauge"},
		{"sharedbad", "sharedstate", "field peak of sharedbad.Gauge"},
		{"injectbad", "injectionpurity", "time.Now"},
		{"injectbad", "injectionpurity", "rand.Intn"},
		{"injectbad", "injectionpurity", "runtime.NumGoroutine"},
		{"injectbad", "injectionpurity", "channel receive"},
		{"injectbad", "injectionpurity", "select statement"},
		{"restartbad", "injectionpurity", "time.Now"},
		{"restartbad", "injectionpurity", "rand.Intn"},
		{"restartbad", "injectionpurity", "channel receive"},
		{"restartbad", "injectionpurity", "in restartbad.(Adversary).fromChan"},
		{"restartbad", "schedulecoverage", "only under the default round-robin schedule"},
		{"lockbad", "lockorder", "lock-order cycle among"},
		{"lockbad", "lockorder", "acquired in lockbad.(Cell).Again while already held"},
		{"lockbad", "lockorder", "field m of lockbad.Pair is guarded by"},
		{"lockbad", "lockorder", "mixed atomic/plain"},
		{"flowbad", "decisionflow", "time.Now (wall clock) (via flowbad.stampNow)"},
		{"flowbad", "decisionflow", "map iteration order"},
		{"flowbad", "decisionflow", "unsynchronized read of field grade"},
		{"flowbad", "decisionflow", "channel receive"},
		{"auditbad", "allowaudit", "stale detlint:allow (nodeterminism)"},
		{"embedbad", "boundedloop", "reachable from embedbad.(Obj).Propose"},
		{"hotallocbad", "hotalloc", "make(map[int]bool) in hot loop"},
		{"hotallocbad", "hotalloc", "append growth in hot loop"},
		{"hotallocbad", "hotalloc", "fmt call (fmt.Sprint) in hot loop"},
		{"hotallocbad", "hotalloc", "escaping composite literal"},
		{"hotallocbad", "hotalloc", "new(Node) in hot loop"},
		{"hotallocbad", "hotalloc", "reachable from hotallocbad.Explore"},
		{"hotallocbad", "hotalloc", "string concatenation in hot loop in hotallocbad.Sweep"},
		{"hotallocbad", "boxing", "variadic argument boxes a int value"},
		{"boxbad", "boxing", "variadic argument"},
		{"boxbad", "boxing", "interface assignment boxes a record struct"},
		{"boxbad", "boxing", "interface-keyed map index"},
		{"boxbad", "boxing", "interface-typed row element"},
		{"arenabad", "arenaready", "field name of arena-nominated arenabad.Node is not flat: string"},
		{"arenabad", "arenaready", "field kids of arena-nominated arenabad.Node is not flat: slice"},
		{"arenabad", "arenaready", "field meta of arena-nominated arenabad.Node is not flat: map"},
		{"arenabad", "arenaready", "field next of arena-nominated arenabad.Node is not flat: pointer"},
		{"arenabad", "arenaready", "field sub of arena-nominated arenabad.Node is not flat: nested field data: slice"},
		{"arenabad", "arenaready", "detlint:encoder must carry an inline justification"},
		{"arenabad", "arenaready", "arena-nominated type arenabad.Table is not flat: map"},
		{"persistbad", "persistsplit", "field count of persistbad.Cell (a sim.Recoverable implementor) has no //detlint:durable or //detlint:volatile annotation"},
		{"persistbad", "persistsplit", "field torn of persistbad.Cell carries both //detlint:durable and //detlint:volatile"},
		{"persistbad", "persistsplit", "OnCrash wipes field saved of persistbad.Cell, which is annotated //detlint:durable — amnesia"},
		{"persistbad", "persistsplit", "OnCrash never wipes field tmp of persistbad.Cell, which is annotated //detlint:volatile — ghost state"},
		{"persistbad", "persistsplit", "//detlint:volatile on field tmp of persistbad.Cell must carry an inline justification"},
		{"persistbad", "persistsplit", "//detlint:durable attaches to no field or type of a sim.Recoverable implementor"},
		{"recreadbad", "recoveryreads", "reads volatile field table of recreadbad.Cache before re-deriving it"},
		{"recreadbad", "recoveryreads", "reads volatile field hits of recreadbad.Cache"},
		{"recreadbad", "recoveryreads", "recovery code reachable from"},
		{"journalbad", "journaldiscipline", "durable write to field count of journalbad.Log"},
		{"journalbad", "journaldiscipline", "response of journalbad.(Log).Aside does not derive from the journal"},
		{"journalbad", "journaldiscipline", "journal field rec of journalbad.Wiped is volatile"},
		{"journalbad", "journaldiscipline", "journaled type journalbad.Empty nominates no //detlint:journal fields"},
		{"journalbad", "journaldiscipline", "field j of journalbad.Unnominated is marked //detlint:journal but the type carries no //detlint:journaled nomination"},
		{"restartcovbad", "restartcoverage", "arms the amnesiac restart adversary NewRepeatedCrashRestart but never touches a recoverable constructor"},
		{"slotbad.go", "slotdiscipline", `assignment to captured variable "total"`},
		{"slotbad.go", "slotdiscipline", `write into captured map "out"`},
		{"slotbad.go", "slotdiscipline", `write to captured "slots" at a subscript other than the worker index`},
		{"slotbad.go", "slotdiscipline", `write to field count of captured "t"`},
		{"slotbad.go", "slotdiscipline", `write through captured pointer "p"`},
		{"slotbad.go", "slotdiscipline", `write through "s", which aliases captured "slots"`},
		{"slotbad.go", "slotdiscipline", "channel send in a par.ForEach worker"},
		{"slotbad.go", "slotdiscipline", "channel receive in a par.ForEach worker"},
		{"slotbad.go", "slotdiscipline", "go statement in a par.ForEach worker"},
		{"slotbad_test.go", "slotdiscipline", `assignment to captured variable "total"`},
		{"slotbad_test.go", "slotdiscipline", `write to captured "slots" at a subscript other than the worker index`},
	}
	for _, want := range expect {
		found := false
		for _, d := range inFile(diags, want.file) {
			if d.Rule == want.rule && strings.Contains(d.Msg, want.msg) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s finding matching %q in %s fixture", want.rule, want.msg, want.file)
		}
	}
}

func TestFixturesAcceptSafeIdioms(t *testing.T) {
	diags := loadFixtures(t)
	for _, clean := range []string{"nodetok", "purityok", "hangok", "schedok", "boundedok", "sharedok", "injectok", "restartok", "lockok", "flowok", "auditok", "hotallocok", "boxok", "arenaok", "persistok", "recreadok", "journalok", "restartcovok", "slotok"} {
		for _, d := range inFile(diags, clean) {
			t.Errorf("unexpected finding in clean fixture %s: %s", clean, d)
		}
	}
}

// TestPartialRunStaleJudgment pins the -rules contract for allowaudit:
// a mark is judged stale only when every rule it names actually ran.
// Selecting nodeterminism makes the auditbad mark judgeable (and stale),
// while a subset without nodeterminism proves nothing about it and must
// stay silent.
func TestPartialRunStaleJudgment(t *testing.T) {
	loadFixtures(t)
	judged := Run(fixtureMod, []*Analyzer{AnalyzerNoDeterminism(), AnalyzerAllowAudit()})
	foundStale := false
	for _, d := range inFile(judged, "auditbad") {
		if d.Rule == allowAuditName {
			foundStale = true
		}
	}
	if !foundStale {
		t.Error("subset including nodeterminism did not judge the auditbad mark stale")
	}
	for _, d := range inFile(judged, "auditok") {
		if d.Rule == allowAuditName {
			t.Errorf("live allow in auditok judged stale: %s", d)
		}
	}
	unjudged := Run(fixtureMod, []*Analyzer{AnalyzerSharedState(), AnalyzerAllowAudit()})
	for _, d := range unjudged {
		if d.Rule == allowAuditName {
			t.Errorf("subset without nodeterminism judged a mark anyway: %s", d)
		}
	}
}

func TestRealTreeIsClean(t *testing.T) {
	// The repository itself must pass its own linter: every remaining
	// exemption carries a justified //detlint:allow.
	diags := loadFixtures(t)
	for _, d := range diags {
		if !strings.Contains(d.Pos.Filename, "testdata") {
			t.Errorf("finding in the real tree: %s", d)
		}
	}
}

func TestFacadeParityFixture(t *testing.T) {
	m, err := Load("testdata/facademod")
	if err != nil {
		t.Fatalf("loading facade fixture module: %v", err)
	}
	diags := Run(m, []*Analyzer{AnalyzerFacadeParity()})
	var orphaned []string
	for _, d := range diags {
		if d.Rule != "facadeparity" {
			t.Errorf("unexpected rule %s: %s", d.Rule, d)
			continue
		}
		orphaned = append(orphaned, d.Msg)
	}
	if len(orphaned) != 1 || !strings.Contains(orphaned[0], "NewOrphan") {
		t.Errorf("facadeparity findings = %q, want exactly one naming NewOrphan", orphaned)
	}
	for _, msg := range orphaned {
		if strings.Contains(msg, "NewGood") || strings.Contains(msg, "NewHidden") {
			t.Errorf("facadeparity flagged a reachable or annotated constructor: %s", msg)
		}
	}
}
