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
// the rule catalogue; v3 adds the SSA-lite/lockset-backed lockorder and
// decisionflow rules.
//
// -rules=<comma-list> runs a subset of the suite (allowaudit only
// judges allows whose rules all ran, so a partial run cannot declare an
// annotation stale). -hot runs just the hot-path rules (hotalloc,
// boxing, arenaready), whose allocation findings are capped by the
// committed per-function budgets in .detlint.hot — each hot rule judges
// only its own budget entries, so a run that skips a rule says nothing
// about that rule's budgets. -hotreport=<path> additionally
// writes a byte-stable JSON ranking of hot functions by static
// allocation score, cross-referencing the newest BENCH_*.json
// allocs/op figures; when no parsable BENCH_*.json exists the report
// carries a note and the bench columns are simply absent.
//
// Runs are incremental: the result of a clean run is cached in
// .detlint.cache at the module root, keyed by a content hash of every
// .go file (tests included), go.mod, EXPERIMENTS.md, the rule set, and
// the detlint version. An unchanged tree replays the cached report
// ("detlint: cache hit" on stderr) without re-type-checking; -no-cache
// forces a fresh run. -json prints the report as JSON; -sarif writes a
// SARIF 2.1.0 log for code-scanning upload. Both formats are byte-stable
// across runs on an unchanged tree, and every finding carries a stable
// ID independent of line numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"detobj/internal/lint"
)

func main() {
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	rootFlag := flag.String("root", "", "module root (default: nearest go.mod above the working directory)")
	list := flag.Bool("list", false, "alias for -list-rules")
	listRules := flag.Bool("list-rules", false, "print the available rules (name and one-line doc, byte-stable order) and exit")
	jsonOut := flag.Bool("json", false, "print the report as JSON instead of text")
	sarifOut := flag.String("sarif", "", "also write a SARIF 2.1.0 log to the given path")
	noCache := flag.Bool("no-cache", false, "ignore and do not write the result cache")
	hot := flag.Bool("hot", false, "run only the hot-path rules (hotalloc, boxing, arenaready)")
	hotReport := flag.String("hotreport", "", "write a JSON ranking of hot functions by allocation score to the given path")
	flag.Parse()

	if *list || *listRules {
		os.Stdout.WriteString(ruleList())
		return
	}

	root := *rootFlag
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}

	analyzers := lint.Analyzers()
	if *hot && *rules != "" {
		fatal(fmt.Errorf("detlint: -hot and -rules are mutually exclusive"))
	}
	if *hot {
		analyzers = lint.HotAnalyzers()
	}
	if *rules != "" {
		want := make(map[string]bool)
		for _, r := range strings.Split(*rules, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var selected []*lint.Analyzer
		for _, a := range analyzers {
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
			fatal(fmt.Errorf("detlint: unknown rule(s) %s", strings.Join(unknown, ", ")))
		}
		analyzers = selected
	}

	var key string
	var report *lint.Report
	if !*noCache {
		var err error
		key, err = lint.CacheKey(root, analyzers)
		if err != nil {
			fatal(err)
		}
		if c := lint.LoadCache(root); c != nil && c.Key == key {
			report = c.Report
			fmt.Fprintln(os.Stderr, "detlint: cache hit")
		}
	}
	var mod *lint.Module
	if report == nil || *hotReport != "" {
		m, err := lint.Load(root)
		if err != nil {
			fatal(err)
		}
		mod = m
	}
	if report == nil {
		report = lint.NewReport(root, lint.Run(mod, analyzers))
		if !*noCache {
			if err := lint.SaveCache(root, &lint.CachedRun{Key: key, Report: report}); err != nil {
				fmt.Fprintf(os.Stderr, "detlint: cache not written: %v\n", err)
			}
		}
	}

	if *hotReport != "" {
		hr := lint.BuildHotReport(mod)
		if hr.Note != "" {
			fmt.Fprintf(os.Stderr, "detlint: hotreport: %s\n", hr.Note)
		}
		b, err := hr.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*hotReport, b, 0o644); err != nil {
			fatal(err)
		}
	}

	if *sarifOut != "" {
		b, err := report.SARIF(analyzers)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*sarifOut, b, 0o644); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		b, err := report.JSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
	} else {
		for _, f := range report.Findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", filepath.FromSlash(f.File), f.Line, f.Col, f.Rule, f.Msg)
		}
	}
	if len(report.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", len(report.Findings))
		os.Exit(1)
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
