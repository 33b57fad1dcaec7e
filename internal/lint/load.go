package lint

// load.go is the syntactic half of the module loader: module discovery,
// file parsing, and the //detlint:allow index. Type-checking and the
// typed symbol API live in typeload.go.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the package's import path, e.g. "detobj/internal/wrn".
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files holds the parsed non-test source files, in file-name order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's object resolution for Files.
	Info *types.Info
}

// Module is a whole Go module, loaded and type-checked for analysis.
// Test files (*_test.go) and testdata directories are excluded: the
// determinism contract binds the shipped code, and tests legitimately
// use wall clocks and unseeded randomness.
type Module struct {
	// Root is the absolute path of the module root (the go.mod directory).
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset positions every file of every package.
	Fset *token.FileSet
	// Pkgs lists all packages in import-path order.
	Pkgs []*Package

	byPath map[string]*Package
	allows map[string][]*allowMark // file name -> allow comments

	// cg caches the conservative callgraph across analyzers.
	cg *CallGraph
	// hot caches the loop-depth-weighted hot-path reachability
	// (hotpath.go) across the hotalloc/boxing rules and the hot report.
	hot *hotInfo
	// esc caches the module-wide may-escape analysis (escape.go).
	esc *escAnalysis
	// persist caches the persistence classification of sim.Recoverable
	// implementors (persist.go) across the recovery-safety rules.
	persist *persistInfo
	// tests caches each package's parsed _test.go files (testFiles).
	tests map[*Package][]*ast.File
	// budgets caches the parsed .detlint.hot allocation budgets
	// (hotbudget.go); budgetsLoaded distinguishes "no file" from
	// "not read yet".
	budgets       []*hotBudget
	budgetsLoaded bool
}

// allowMark is one parsed //detlint:allow comment.
type allowMark struct {
	line      int
	rules     map[string]bool
	justified bool
	pos       token.Position
	// used is set by the driver whenever the mark suppresses a finding
	// (or exempts a field declaration); the allowaudit rule reports
	// justified marks that stay unused across a full run.
	used bool
}

// Load walks the module rooted at root (its go.mod directory), parses
// every non-test Go file outside testdata, and type-checks every package
// using only the standard library's go/parser, go/types and go/importer.
func Load(root string) (*Module, error) {
	return LoadWithExtra(root, nil)
}

// LoadWithExtra is Load plus extra packages: a map from import path to
// directory, used by the fixture tests to graft testdata packages into
// the module's package set.
func LoadWithExtra(root string, extra map[string]string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:   root,
		Path:   modPath,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
		allows: make(map[string][]*allowMark),
		tests:  make(map[*Package][]*ast.File),
	}
	l := &loader{
		m:       m,
		std:     importer.ForCompiler(m.Fset, "source", nil),
		dirs:    make(map[string]string),
		loading: make(map[string]bool),
	}
	if err := l.discover(); err != nil {
		return nil, err
	}
	extraPaths := make([]string, 0, len(extra))
	for path := range extra {
		extraPaths = append(extraPaths, path)
	}
	sort.Strings(extraPaths)
	for _, path := range extraPaths {
		abs, err := filepath.Abs(extra[path])
		if err != nil {
			return nil, err
		}
		l.dirs[path] = abs
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	for _, p := range paths {
		m.Pkgs = append(m.Pkgs, m.byPath[p])
	}
	return m, nil
}

// Lookup returns the loaded package with the given import path, or nil.
func (m *Module) Lookup(path string) *Package { return m.byPath[path] }

// InScope reports whether pkg sits under one of the given top-level
// directories of the module (e.g. "internal", "cmd").
func (m *Module) InScope(pkg *Package, tops ...string) bool {
	if pkg.Path == m.Path {
		return false
	}
	rel := strings.TrimPrefix(pkg.Path, m.Path+"/")
	for _, top := range tops {
		if rel == top || strings.HasPrefix(rel, top+"/") {
			return true
		}
	}
	return false
}

// testFiles returns pkg's _test.go files in file-name order, parsed on
// first use and then cached for the life of the load, with their
// //detlint:allow comments indexed once. The typed load leaves test
// files out, so the rules that read them (schedulecoverage,
// restartcoverage, slotdiscipline) work on syntax alone. A file that
// does not parse is skipped: that is the compiler's finding, not ours.
func (m *Module) testFiles(pkg *Package) []*ast.File {
	if files, ok := m.tests[pkg]; ok {
		return files
	}
	var files []*ast.File
	// The directory was read moments ago by the load; if it has gone
	// since, there are no test files to read.
	entries, _ := os.ReadDir(pkg.Dir)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(pkg.Dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			continue
		}
		m.indexAllows(f)
		files = append(files, f)
	}
	m.tests[pkg] = files
	return files
}

// indexAllows records every //detlint:allow comment of one file.
func (m *Module) indexAllows(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "detlint:allow")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			mark := &allowMark{
				pos:   m.Fset.Position(c.Pos()),
				rules: make(map[string]bool),
			}
			mark.line = mark.pos.Line
			if len(fields) > 0 {
				for _, r := range strings.Split(fields[0], ",") {
					mark.rules[r] = true
				}
				mark.justified = len(fields) > 1
			}
			m.allows[mark.pos.Filename] = append(m.allows[mark.pos.Filename], mark)
		}
	}
}

// isFixture reports whether pkg is a grafted test fixture whose import
// path ends in one of the given package names; the scoped rules
// (sharedstate, injectionpurity) use it to pull their fixtures into
// scope without widening the real-tree scope.
func (m *Module) isFixture(pkg *Package, names ...string) bool {
	if !strings.Contains(pkg.Path, "/lintfixture/") {
		return false
	}
	for _, n := range names {
		if strings.HasSuffix(pkg.Path, "/"+n) {
			return true
		}
	}
	return false
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// discover registers every package directory of the module.
func (l *loader) discover() error {
	return filepath.WalkDir(l.m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.m.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		has, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if !has {
			return nil
		}
		rel, err := filepath.Rel(l.m.Root, path)
		if err != nil {
			return err
		}
		imp := l.m.Path
		if rel != "." {
			imp = l.m.Path + "/" + filepath.ToSlash(rel)
		}
		l.dirs[imp] = path
		return nil
	})
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if goSource(e) {
			return true, nil
		}
	}
	return false, nil
}

func goSource(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".")
}
