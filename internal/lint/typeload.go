package lint

// typeload.go is the type-aware half of the module loader plus the typed
// symbol API the analyzers build on. Parsing and directory discovery
// live in load.go; everything that touches go/types — the on-demand
// type-checking importer and the symbol-resolution helpers that make
// rules immune to identifier spelling (shadowed `time`, a local type
// with a Now method, a renamed import) — lives here. The helpers are
// the only sanctioned way for a rule to ask "is this call really
// time.Now?": they resolve through types.Info, never through the
// identifier text.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// loader resolves and type-checks packages on demand. Module-internal
// imports are loaded from source; everything else (the standard library)
// goes through the source importer.
type loader struct {
	m       *Module
	std     types.Importer
	dirs    map[string]string // import path -> directory
	loading map[string]bool   // cycle detection
}

// Import implements types.Importer for the type-checker's configuration.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.m.Path || strings.HasPrefix(path, l.m.Path+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the package at the given module import
// path (idempotent).
func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.m.byPath[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.dirs[path]
	if !ok {
		// An internal import outside the walked tree (shouldn't happen in
		// a well-formed module).
		return nil, fmt.Errorf("lint: unknown module package %q", path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if !goSource(e) {
			continue
		}
		f, err := parser.ParseFile(l.m.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var tcErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if tcErr == nil {
				tcErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, l.m.Fset, files, info)
	if tcErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, tcErr)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.m.byPath[path] = p
	for _, f := range files {
		l.m.indexAllows(f)
	}
	return p, nil
}

// ---- Typed symbol API -------------------------------------------------
//
// Rules never compare identifier text against a symbol name. They resolve
// the identifier through types.Info and compare the resulting object's
// package path and name, so a local variable called `time` or a method
// called Now on a user type can never trip a rule.

// isFunc reports whether fn is the package-level function path.name for
// one of the given names. Methods never match: a method named Now on a
// user-defined clock is not time.Now.
func isFunc(fn *types.Func, path string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != path {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// isMethod reports whether fn is a method named one of names declared on
// a type of the package with the given path (the receiver's base type
// must come from that package).
func isMethod(fn *types.Func, path string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != path {
		return false
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// resolvedFunc resolves the function a call's Fun expression names,
// whether spelled as an identifier, a qualified name, or a method
// selection. Dynamic calls (function values, closures, builtins,
// conversions) return nil.
func resolvedFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[fun]; ok {
			if s.Kind() == types.MethodVal {
				fn, _ := s.Obj().(*types.Func)
				return fn
			}
			return nil // field value call
		}
		// Qualified package function: pkgname.Func.
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := pkg.Info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// receiverInterface returns the interface type a method call dispatches
// through, or nil if the call is static (concrete receiver, package
// function, or not a call through a selector).
func receiverInterface(pkg *Package, call *ast.CallExpr) (*types.Interface, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, ""
	}
	recv := s.Recv()
	if iface, ok := recv.Underlying().(*types.Interface); ok {
		return iface, s.Obj().Name()
	}
	return nil, ""
}

// namedBase unwraps pointers and aliases down to a *types.Named, or nil.
func namedBase(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(u)
		default:
			return nil
		}
	}
}

// selectedField returns the field object a selector denotes, or nil.
func selectedField(pkg *Package, sel *ast.SelectorExpr) *types.Var {
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// fieldTarget resolves an assignment target to the struct field it
// writes, unwrapping index/star/paren chains. direct reports that the
// field itself is the target (header write), as opposed to an element
// or pointee reached through it.
func fieldTarget(pkg *Package, e ast.Expr) (f *types.Var, direct bool) {
	direct = true
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
			direct = false
		case *ast.StarExpr:
			e = x.X
			direct = false
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			return selectedField(pkg, x), direct
		default:
			return nil, false
		}
	}
}

// lookupConcreteMethod finds the concrete method named name on t (or
// *t), or nil.
func lookupConcreteMethod(t types.Type, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	if fn, ok := obj.(*types.Func); ok {
		return fn
	}
	return nil
}

// position is a small convenience: the token.Position of a node.
func (m *Module) position(n ast.Node) token.Position { return m.Fset.Position(n.Pos()) }
