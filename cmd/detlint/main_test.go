package main

import (
	"os"
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

// ruleNames lists the analyzers' names in order.
func ruleNames(as []*lint.Analyzer) []string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}

// TestSelectAnalyzers: -recovery and -hot select exactly the library's
// recovery and hot-path subsets, -rules the named rules, and no flag the
// whole suite; combining them is an error.
func TestSelectAnalyzers(t *testing.T) {
	for _, c := range []struct {
		name          string
		hot, recovery bool
		rules         string
		want          []*lint.Analyzer
	}{
		{"default", false, false, "", lint.Analyzers()},
		{"-hot", true, false, "", lint.HotAnalyzers()},
		{"-recovery", false, true, "", lint.RecoveryAnalyzers()},
		{"-rules", false, false, "boxing, nodeterminism", []*lint.Analyzer{lint.AnalyzerNoDeterminism(), lint.AnalyzerBoxing()}},
	} {
		got, err := selectAnalyzers(c.hot, c.recovery, c.rules)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if g, w := strings.Join(ruleNames(got), ","), strings.Join(ruleNames(c.want), ","); g != w {
			t.Errorf("%s selects %s, want %s", c.name, g, w)
		}
	}
	for _, c := range []struct {
		hot, recovery bool
		rules         string
	}{{true, true, ""}, {true, false, "boxing"}, {false, true, "persistsplit"}, {false, false, "nosuchrule"}} {
		if _, err := selectAnalyzers(c.hot, c.recovery, c.rules); err == nil {
			t.Errorf("hot=%v recovery=%v rules=%q: no error", c.hot, c.recovery, c.rules)
		}
	}
}
