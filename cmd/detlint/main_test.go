package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"detobj/internal/lint"
)

// TestRuleListShape pins the -list-rules contract: one line per
// registered rule, in registry order, name first and one-line doc
// after. The order is the byte-stable surface the README table check
// below builds on.
func TestRuleListShape(t *testing.T) {
	out := ruleList()
	if out != ruleList() {
		t.Fatal("ruleList is not byte-stable across calls")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	analyzers := lint.Analyzers()
	if len(lines) != len(analyzers) {
		t.Fatalf("ruleList has %d lines, registry has %d rules", len(lines), len(analyzers))
	}
	for i, a := range analyzers {
		name, doc, ok := strings.Cut(lines[i], " ")
		if !ok || name != a.Name {
			t.Errorf("line %d = %q, want rule %q first", i, lines[i], a.Name)
			continue
		}
		if strings.TrimSpace(doc) != a.Doc {
			t.Errorf("line %d doc = %q, want %q", i, strings.TrimSpace(doc), a.Doc)
		}
		if strings.ContainsAny(a.Doc, "\n") {
			t.Errorf("rule %s doc spans lines; -list-rules is one line per rule", a.Name)
		}
	}
}

// TestREADMERuleTable keeps README.md's "Static analysis" table and the
// rule registry in lockstep: every rule -list-rules emits has a table
// row, and every table row names a registered rule.
func TestREADMERuleTable(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	known := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(ruleList(), "\n"), "\n") {
		name, _, _ := strings.Cut(line, " ")
		known[name] = true
		if !strings.Contains(readme, "| `"+name+"` |") {
			t.Errorf("rule %s has no row in README.md's rule table", name)
		}
	}
	rowRe := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|")
	for _, m := range rowRe.FindAllStringSubmatch(readme, -1) {
		if !known[m[1]] {
			t.Errorf("README.md rule table row %q names no registered rule", m[1])
		}
	}
}

// commandFiles are the files whose detlint commands people copy and
// run: the docs, the Makefile, CI and the verify skill.
var commandFiles = []string{"README.md", "Makefile", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}

// TestDocsNameOnlyRegisteredRules: every rule that a command in the
// docs, the Makefile, CI or the verify skill selects with -rules, or
// that CI's `for rules in …` loop feeds to -rules, is registered, so a
// retired rule's name cannot linger in a command anyone runs.
func TestDocsNameOnlyRegisteredRules(t *testing.T) {
	known := make(map[string]bool)
	for _, a := range lint.Analyzers() {
		known[a.Name] = true
	}
	// A placeholder (<comma-list>, "$rules") starts with no letter and
	// names nothing; -list-rules is no selection.
	selection := regexp.MustCompile("(?:^|[\\s`])-rules[ =]\"?([a-z][a-z,]*)")
	loop := regexp.MustCompile(`for rules in ([^;\n]*);`)
	found := 0
	for _, file := range commandFiles {
		data, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, m := range selection.FindAllStringSubmatch(string(data), -1) {
			names = append(names, strings.Split(m[1], ",")...)
		}
		for _, m := range loop.FindAllStringSubmatch(string(data), -1) {
			names = append(names, strings.Fields(m[1])...)
		}
		for _, name := range names {
			found++
			if !known[name] {
				t.Errorf("%s selects %q, which names no registered rule", file, name)
			}
		}
	}
	if found == 0 {
		t.Error("no -rules selection found in any file; the patterns have gone stale")
	}
}

// TestDocsPassOnlyDefinedFlags: every detlint command in the docs, the
// Makefile, CI, the verify skill or the header of .detlint.hot passes
// only flags that run's flag set defines, so a retired flag cannot
// linger in a command anyone copies. Each command's arguments go through
// run itself behind -list-rules, so the flag package parses them as the
// binary would, and no module is loaded and no file written.
func TestDocsPassOnlyDefinedFlags(t *testing.T) {
	type doc struct{ file, text string }
	var docs []doc
	for _, file := range commandFiles {
		data, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc{file, string(data)})
	}
	data, err := os.ReadFile(filepath.Join("..", "..", lint.HotBudgetFileName))
	if err != nil {
		t.Fatal(err)
	}
	// The header is the comment block above the first budget entry.
	var header []string
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "#") {
			break
		}
		header = append(header, line)
	}
	docs = append(docs, doc{lint.HotBudgetFileName + " header", strings.Join(header, "\n")})
	// A command runs from "detlint" (or "./cmd/detlint") to the end of
	// its line, code span or shell statement.
	command := regexp.MustCompile("(?:^|[\\s`(/])detlint[ \\t]+([^`;|)\\n]*)")
	found := 0
	for _, d := range docs {
		for _, m := range command.FindAllStringSubmatch(d.text, -1) {
			found++
			var stdout, stderr bytes.Buffer
			if code := run(append([]string{"-list-rules"}, strings.Fields(m[1])...), &stdout, &stderr); code != 0 {
				msg, _, _ := strings.Cut(stderr.String(), "\n")
				t.Errorf("%s: detlint %s: exit %d: %s", d.file, strings.TrimSpace(m[1]), code, msg)
			}
		}
	}
	if found == 0 {
		t.Error("no detlint command found in any file; the pattern has gone stale")
	}
}

// ruleNames lists the analyzers' names in order.
func ruleNames(as []*lint.Analyzer) []string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}

// TestSelectAnalyzers: -rules selects the named rules in registry order,
// so the lists the CI gates name come out as the registry orders them,
// no -rules selects the whole suite, and an unknown name is an error.
func TestSelectAnalyzers(t *testing.T) {
	for _, c := range []struct {
		rules string
		want  []*lint.Analyzer
	}{
		{"", lint.Analyzers()},
		{"boxing, nodeterminism", []*lint.Analyzer{lint.AnalyzerNoDeterminism(), lint.AnalyzerBoxing()}},
		{"boxing,hotalloc", []*lint.Analyzer{lint.AnalyzerHotAlloc(), lint.AnalyzerBoxing()}},
		{"restartcoverage,journaldiscipline,persistsplit", []*lint.Analyzer{lint.AnalyzerPersistSplit(), lint.AnalyzerJournalDiscipline(), lint.AnalyzerRestartCoverage()}},
	} {
		got, err := selectAnalyzers(c.rules)
		if err != nil {
			t.Fatalf("-rules %q: %v", c.rules, err)
		}
		if g, w := strings.Join(ruleNames(got), ","), strings.Join(ruleNames(c.want), ","); g != w {
			t.Errorf("-rules %q selects %s, want %s", c.rules, g, w)
		}
	}
	if _, err := selectAnalyzers("nosuchrule"); err == nil {
		t.Error("-rules nosuchrule: no error")
	}
}

// TestRunListRules: -list-rules prints the catalogue and exits 0
// without loading a module.
func TestRunListRules(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list-rules", "-root", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if stdout.String() != ruleList() {
		t.Errorf("-list-rules printed %q, want ruleList()", stdout.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("-list-rules wrote to stderr: %q", stderr.String())
	}
}

// TestRunRetiredFlags: the result cache, the hot report, the JSON report
// and the -hot and -recovery presets are gone (-rules names the preset
// lists), so their flags are malformed command lines (exit 2) rather
// than silently ignored.
func TestRunRetiredFlags(t *testing.T) {
	for _, f := range []string{"-no-cache", "-json", "-hotreport", "-hot", "-recovery"} {
		t.Run(f, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{f, "-list-rules"}, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if want := "flag provided but not defined: " + f; !strings.Contains(stderr.String(), want) {
				t.Errorf("stderr %q does not say %q", stderr.String(), want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout %q, want nothing", stdout.String())
			}
		})
	}
}

// writeModule lays out a throwaway module from file name to content.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunModule drives the command end to end over throwaway modules:
// each run analyzes the tree afresh, a clean tree exits 0 silently, a
// finding prints as file:line:col: rule: message with a count on stderr
// and exit 1, and -sarif writes the log.
func TestRunModule(t *testing.T) {
	const clock = "package clock\n\nimport \"time\"\n\nfunc Now() int64 { return time.Now().UnixNano() }\n"
	const pure = "package clock\n\nfunc Now() int64 { return 0 }\n"
	t.Run("clean", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"go.mod": "module scratch\n\ngo 1.22\n", "internal/clock/clock.go": pure})
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-root", dir}, &stdout, &stderr); code != 0 {
			t.Errorf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
		}
		if stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("clean run printed stdout %q, stderr %q", stdout.String(), stderr.String())
		}
	})
	t.Run("finding", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"go.mod": "module scratch\n\ngo 1.22\n", "internal/clock/clock.go": pure})
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-root", dir, "-rules", "nodeterminism"}, &stdout, &stderr); code != 0 {
			t.Fatalf("pure tree: exit %d, stdout %q", code, stdout.String())
		}
		// The same root, edited: no earlier run's result may stand in.
		if err := os.WriteFile(filepath.Join(dir, "internal", "clock", "clock.go"), []byte(clock), 0o644); err != nil {
			t.Fatal(err)
		}
		sarif := filepath.Join(t.TempDir(), "detlint.sarif")
		stdout.Reset()
		if code := run([]string{"-root", dir, "-rules", "nodeterminism", "-sarif", sarif}, &stdout, &stderr); code != 1 {
			t.Fatalf("exit %d, want 1; stdout %q", code, stdout.String())
		}
		want := filepath.FromSlash("internal/clock/clock.go") + ":5:"
		if lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n"); len(lines) != 1 ||
			!strings.HasPrefix(lines[0], want) || !strings.Contains(lines[0], ": nodeterminism: ") {
			t.Errorf("stdout %q, want one %s... nodeterminism line", stdout.String(), want)
		}
		if stderr.String() != "detlint: 1 finding(s)\n" {
			t.Errorf("stderr %q, want the finding count", stderr.String())
		}
		b, err := os.ReadFile(sarif)
		if err != nil {
			t.Fatalf("-sarif wrote no log: %v", err)
		}
		if !strings.Contains(string(b), `"ruleId": "nodeterminism"`) {
			t.Errorf("SARIF log carries no nodeterminism result:\n%s", b)
		}
	})
}
