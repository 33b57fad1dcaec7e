// Package lint is detlint's analyzer driver: a standard-library-only
// static-analysis layer that machine-checks the repository's determinism
// contract. Every theorem-shaped artifact in this module rests on the
// simulator's guarantees — lockstep scheduling, replayable schedules,
// objects that are pure sequential state machines (DESIGN.md §5) — and a
// stray wall-clock read or map iteration inside a decision path silently
// breaks replay and invalidates the model checker's exhaustive
// exploration. The analyzers here make those assumptions checkable on
// every build:
//
//   - nodeterminism: no wall clocks, unseeded randomness,
//     order-sensitive map iteration, multi-channel selects or goroutine
//     spawns inside internal/ and cmd/.
//   - objectpurity: sim.Object implementations neither retain Invocation
//     argument slices, nor mutate package-level state, nor perform I/O in
//     Apply.
//   - hangsemantics: bounded-use objects under internal/ park the caller
//     via the simulator's hang path instead of surfacing errors; every
//     use of a bounded-use sentinel error, such as the Bounded wrapper's
//     ErrExhausted, carries a justified allow.
//   - facadeparity: every exported constructor of a module referenced by
//     EXPERIMENTS.md's module index is reachable through the api.go
//     facade.
//   - schedulecoverage: test packages that drive sim.Run must vary the
//     schedule beyond the default round-robin — a seeded random sweep, a
//     crashing schedule, a chaos adversary, or exhaustive exploration.
//   - boundedloop: every loop reachable from a decision path (Apply,
//     Propose, WRN, Decide, Elect, Scan, Update) carries a progress
//     metric — a bounded counter, a finite range, or a helping read —
//     so wait-freedom is checkable, not aspirational.
//   - injectionpurity: chaos injection decisions in internal/chaos
//     (anything returning sim.Fault) are pure functions of the seed and
//     the observed run.
//   - hotalloc, boxing: no new heap-allocation sites or boxing
//     interface conversions in loops reachable from the hot
//     entrypoints, beyond the per-function budgets in .detlint.hot.
//   - persistsplit: every field of a sim.Recoverable implementor is
//     declared //detlint:durable or //detlint:volatile, and OnCrash
//     wipes exactly the volatile set — a wiped durable field is
//     amnesia, an untouched volatile field is ghost state.
//   - journaldiscipline: on methods of //detlint:journaled types,
//     durable writes flow through the journal append before the
//     response, and the response derives from the journal.
//   - restartcoverage: test packages arming amnesiac restart
//     adversaries target recoverable objects, or carry a
//     negative-control allow.
//   - slotdiscipline: par.ForEach workers write captured state only as
//     root[i] (i the worker index) or through a local bound to
//     &root[i], and use no channels or go statements — a syntactic
//     check over non-test and test files alike.
//   - allowaudit: every justified //detlint:allow must still suppress a
//     finding; stale annotations are findings themselves.
//
// The interprocedural rules ride on a typed load (typeload.go), a
// per-function control-flow graph (cfg.go) and a conservative module
// callgraph (callgraph.go). The rules that read _test.go files share
// one parse of them per load (Module.testFiles).
//
// A finding can be suppressed with an inline escape comment on the same
// or preceding line:
//
//	//detlint:allow <rule>[,<rule>...] <justification>
//
// The justification is mandatory; an allow comment without one is itself
// a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Rule names the analyzer that produced the finding.
	Rule string
	// Msg describes the finding.
	Msg string
}

// String renders the diagnostic as "file:line:col: rule: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Analyzer is one detlint rule: a named pass over a loaded module.
type Analyzer struct {
	// Name is the rule name used in diagnostics and allow comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run produces the analyzer's findings for the module.
	Run func(m *Module) []Diagnostic
}

// Analyzers returns the full detlint suite, in canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerNoDeterminism(),
		AnalyzerObjectPurity(),
		AnalyzerHangSemantics(),
		AnalyzerFacadeParity(),
		AnalyzerScheduleCoverage(),
		AnalyzerBoundedLoop(),
		AnalyzerInjectionPurity(),
		AnalyzerHotAlloc(),
		AnalyzerBoxing(),
		AnalyzerPersistSplit(),
		AnalyzerJournalDiscipline(),
		AnalyzerRestartCoverage(),
		AnalyzerSlotDiscipline(),
		AnalyzerAllowAudit(),
	}
}

// Run executes the analyzers over the module, drops findings suppressed
// by justified //detlint:allow comments, appends a finding for every
// allow comment that lacks a justification, and returns the remainder
// sorted by position.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	for _, marks := range m.allows {
		for _, a := range marks {
			a.used = false
		}
	}
	for _, b := range m.hotBudgets() {
		b.used = false
	}
	selected := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Name == allowAuditName {
			continue // runs after every suppression mark is in place
		}
		for _, d := range a.Run(m) {
			d.Rule = a.Name
			if !m.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	if selected[allowAuditName] {
		out = append(out, m.staleAllows(selected)...)
	}
	out = append(out, m.allowProblems()...)
	sort.Slice(out, func(i, j int) bool { return diagLess(out[i], out[j]) })
	return out
}

// diagLess is the canonical finding order: position, then rule, then
// message. The rule/message tiebreak makes reports byte-stable even when
// two analyzers fire on the same statement.
func diagLess(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Rule != b.Rule {
		return a.Rule < b.Rule
	}
	return a.Msg < b.Msg
}

// suppressed reports whether a justified allow comment covers the
// diagnostic: same file, naming the rule (or "all"), on the same line or
// the line directly above.
func (m *Module) suppressed(d Diagnostic) bool {
	for _, a := range m.allows[d.Pos.Filename] {
		if !a.justified {
			continue
		}
		if a.line != d.Pos.Line && a.line != d.Pos.Line-1 {
			continue
		}
		if a.rules[d.Rule] || a.rules["all"] {
			a.used = true
			return true
		}
	}
	return false
}

// allowProblems reports every allow comment that names no rule or
// carries no justification, and every //detlint:hot comment that marks
// nothing.
func (m *Module) allowProblems() []Diagnostic {
	var out []Diagnostic
	files := make([]string, 0, len(m.allows))
	for f := range m.allows {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for _, a := range m.allows[f] {
			switch {
			case len(a.rules) == 0:
				out = append(out, Diagnostic{Pos: a.pos, Rule: "allow",
					Msg: "detlint:allow names no rule"})
			case !a.justified:
				out = append(out, Diagnostic{Pos: a.pos, Rule: "allow",
					Msg: "detlint:allow must carry an inline justification after the rule list"})
			}
		}
	}
	for _, pos := range m.strayHot {
		out = append(out, Diagnostic{Pos: pos, Rule: hotAllocName,
			Msg: "detlint:hot marks a hot root only in a function declaration's doc group; this one marks nothing"})
	}
	return out
}

// parentMap returns each node's syntactic parent within the file.
// Analyzers use it to whitelist expression contexts.
func parentMap(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
