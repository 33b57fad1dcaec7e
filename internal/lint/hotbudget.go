package lint

// hotbudget.go reads and judges .detlint.hot, the committed per-
// function allocation budgets of the hotalloc and boxing rules. The
// exhaustive engines legitimately allocate — a state map IS the
// product — so those rules cannot demand zero; instead the triaged
// baseline is committed as budgets and CI fails only on NEW sites. The
// file is the alloc analogue of //detlint:allow, and it is kept honest
// the same way allowaudit keeps allows honest: an entry whose function
// now has fewer sites than budgeted (or none at all) is itself a
// finding, so the baseline can only shrink.
//
// Format, one entry per line:
//
//	<rule> <import-path-qualified-function> <site-count>
//
// e.g.
//
//	hotalloc detobj/internal/modelcheck.sweep 5
//	boxing detobj/internal/sim.(*Runner).step 1
//
// '#' starts a comment. Each hot rule judges only its own entries, so
// a partial -rules run that skips a rule says nothing about that
// rule's budgets — the same partial-run contract allowaudit gives
// allows. The file is part of the cache key (cache.go): editing a
// budget invalidates cached reports.

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// HotBudgetFileName is the budget file's location relative to the
// module root.
const HotBudgetFileName = ".detlint.hot"

// hotBudget is one parsed budget entry.
type hotBudget struct {
	rule  string
	fn    string // import-path-qualified function label
	count int
	pos   token.Position
	// used is set when the entry's function produced at least one site
	// this run; reset by the driver like allow marks.
	used bool
}

// hotBudgets returns the module's parsed budget entries, reading
// .detlint.hot on first use. A missing file means no budgets; a
// malformed line is a panic-free parse error surfaced as a diagnostic
// by the first hot rule that runs (entries after the bad line still
// load).
func (m *Module) hotBudgets() []*hotBudget {
	if m.budgetsLoaded {
		return m.budgets
	}
	m.budgetsLoaded = true
	path := filepath.Join(m.Root, HotBudgetFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	for i, line := range strings.Split(string(data), "\n") {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		b := &hotBudget{pos: token.Position{Filename: path, Line: i + 1, Column: 1}}
		if len(fields) == 3 {
			if n, err := strconv.Atoi(fields[2]); err == nil && n > 0 {
				b.rule, b.fn, b.count = fields[0], fields[1], n
			}
		}
		m.budgets = append(m.budgets, b)
	}
	return m.budgets
}

// injectHotBudgets replaces the module's budgets for a test and
// returns a restore function.
func injectHotBudgets(m *Module, entries ...*hotBudget) func() {
	prev, prevLoaded := m.budgets, m.budgetsLoaded
	m.budgets, m.budgetsLoaded = entries, true
	return func() { m.budgets, m.budgetsLoaded = prev, prevLoaded }
}

// budgetFor returns the entry covering (rule, fn), or nil.
func (m *Module) budgetFor(rule, fn string) *hotBudget {
	for _, b := range m.hotBudgets() {
		if b.rule == rule && b.fn == fn {
			return b
		}
	}
	return nil
}

// budgetLabel renders a node as its import-path-qualified budget key:
// path.Func or path.(Recv).Method — unambiguous across same-named
// packages, unlike the diagnostic funcLabel.
func budgetLabel(n *FuncNode) string {
	if n.Decl.Recv != nil {
		return fmt.Sprintf("%s.(%s).%s", n.Pkg.Path, receiverTypeName(n.Decl), n.Decl.Name.Name)
	}
	return n.Pkg.Path + "." + n.Decl.Name.Name
}

// applyBudget folds one function's sites through its budget entry.
// Within budget, the sites are suppressed (the entry is the
// justification); over budget, every site is reported, tagged with the
// excess; under budget, a staleness finding demands the baseline
// shrink. Functions with no entry report their sites plainly.
func applyBudget(m *Module, rule string, n *FuncNode, sites []Diagnostic) []Diagnostic {
	b := m.budgetFor(rule, budgetLabel(n))
	if b == nil {
		return sites
	}
	b.used = true
	switch {
	case len(sites) > b.count:
		for i := range sites {
			sites[i].Msg += fmt.Sprintf(" [%d site(s) exceed the %s budget of %d in %s]",
				len(sites)-b.count, budgetLabel(n), b.count, HotBudgetFileName)
		}
		return sites
	case len(sites) < b.count:
		return []Diagnostic{{Pos: b.pos, Msg: fmt.Sprintf(
			"stale %s budget: %s now has %d site(s), budget is %d; lower the entry",
			rule, budgetLabel(n), len(sites), b.count)}}
	default:
		return nil
	}
}

// budgetProblems reports, for one hot rule, the entries it could judge
// this run and found wanting: malformed lines and entries whose
// function produced no site at all. Called by each hot rule for its
// own entries, which gives budgets allowaudit's partial-run contract
// for free — a run that skips the rule never reaches this code.
func budgetProblems(m *Module, rule string) []Diagnostic {
	var out []Diagnostic
	entries := m.hotBudgets()
	sorted := make([]*hotBudget, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].pos.Line < sorted[j].pos.Line })
	for _, b := range sorted {
		if b.rule == "" {
			if rule == hotAllocName { // report malformed lines once, under the first hot rule
				out = append(out, Diagnostic{Pos: b.pos,
					Msg: fmt.Sprintf("malformed %s entry: want \"<rule> <function> <count>\" with count > 0", HotBudgetFileName)})
			}
			continue
		}
		if b.rule != rule || b.used {
			continue
		}
		out = append(out, Diagnostic{Pos: b.pos, Msg: fmt.Sprintf(
			"stale %s budget: %s has no hot allocation site(s) this run; remove the entry",
			rule, b.fn)})
	}
	return out
}
