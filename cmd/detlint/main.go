// Command detlint runs the repository's determinism and model-integrity
// analyzer suite (internal/lint) over the whole module and exits
// nonzero on findings. It is stdlib-only (go/parser, go/ast, go/types,
// go/importer) and type-checks every package of the module, so it also
// acts as a whole-module compile check.
//
// Usage:
//
//	go run ./cmd/detlint ./...
//
// Package patterns are accepted for familiarity but the driver always
// analyzes the module containing the working directory in full — the
// facadeparity rule is inherently whole-module. Findings print as
// file:line:col: rule: message. A finding is suppressed by an inline
//
//	//detlint:allow <rule>[,<rule>...] <justification>
//
// comment on the same or the preceding line; the justification is
// mandatory, and the allowaudit rule reports any justified allow that
// no longer suppresses a finding. See README.md "Static analysis" for
// the rule catalogue; -list-rules prints it.
//
// -rules=<comma-list> runs a subset of the suite, in registry order
// (allowaudit only judges allows whose rules all ran, so a partial run
// cannot declare an annotation stale). CI's alloc gate runs -rules
// hotalloc,boxing, whose allocation findings are capped by the
// committed per-function budgets in .detlint.hot — each hot rule judges
// only its own budget entries, so a run that skips a rule says nothing
// about that rule's budgets — and its recovery gate runs -rules
// persistsplit,journaldiscipline,restartcoverage. -sarif writes a SARIF
// 2.1.0 log for code-scanning upload; it is byte-stable across runs on
// an unchanged tree, and every finding carries a stable ID independent
// of line numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"detobj/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, analyzes the module,
// prints findings to stdout and errors to stderr, and returns the exit
// status: 0 clean, 1 findings or an error, 2 a malformed command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("detlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	rootFlag := fs.String("root", "", "module root (default: nearest go.mod above the working directory)")
	listRules := fs.Bool("list-rules", false, "print the available rules (name and one-line doc, byte-stable order) and exit")
	sarifOut := fs.String("sarif", "", "also write a SARIF 2.1.0 log to the given path")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *listRules {
		io.WriteString(stdout, ruleList())
		return 0
	}

	root := *rootFlag
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			return fail(err)
		}
	}

	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		return fail(err)
	}
	mod, err := lint.Load(root)
	if err != nil {
		return fail(err)
	}
	report := lint.NewReport(root, lint.Run(mod, analyzers))

	if *sarifOut != "" {
		b, err := report.SARIF(analyzers)
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*sarifOut, b, 0o644); err != nil {
			return fail(err)
		}
	}
	for _, f := range report.Findings {
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", filepath.FromSlash(f.File), f.Line, f.Col, f.Rule, f.Msg)
	}
	if len(report.Findings) > 0 {
		fmt.Fprintf(stderr, "detlint: %d finding(s)\n", len(report.Findings))
		return 1
	}
	return 0
}

// selectAnalyzers returns the rules a run selects: the -rules list in
// registry order, or else the whole suite.
func selectAnalyzers(rules string) ([]*lint.Analyzer, error) {
	if rules == "" {
		return lint.Analyzers(), nil
	}
	want := make(map[string]bool)
	for _, r := range strings.Split(rules, ",") {
		want[strings.TrimSpace(r)] = true
	}
	var selected []*lint.Analyzer
	for _, a := range lint.Analyzers() {
		if want[a.Name] {
			selected = append(selected, a)
			delete(want, a.Name)
		}
	}
	unknown := make([]string, 0, len(want))
	for r := range want {
		unknown = append(unknown, r)
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		return nil, fmt.Errorf("detlint: unknown rule(s) %s", strings.Join(unknown, ", "))
	}
	return selected, nil
}

// ruleList renders the registered rule set for -list-rules: one
// "name doc" line per rule in registry order, byte-stable run to run so
// the README rule-table check can diff against it.
func ruleList() string {
	var b strings.Builder
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(&b, "%-17s %s\n", a.Name, a.Doc)
	}
	return b.String()
}

// findModuleRoot walks upward from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("detlint: no go.mod above the working directory")
		}
		dir = parent
	}
}
