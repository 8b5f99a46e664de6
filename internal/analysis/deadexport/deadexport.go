// Package deadexport reports exported code under internal/ that no
// non-test file references (DESIGN.md §10). Nothing outside the module
// can call an internal export, so one that only tests call is dead: the
// fix is to delete it, or to unexport it if its own package needs it.
//
// A reference is a use the type checker records in a non-test file of
// the module or of the configured extra modules. A declaration's uses
// of itself, and a type's uses in its own methods, do not count. The
// type checker decides the exemptions: a method that implements an
// interface declared in the module or a package it imports (or error,
// or an errors package protocol); a method on a type the root package
// re-exports as an alias; and test-support packages, whose import path
// has an element ending in "test".
//
// Only a whole-module load can show that a reference is absent, so the
// analyzer reports only when the load holds every package `go list
// ./...` names in the root package's directory. On a partial pattern
// and under go vet -vettool it reports nothing.
package deadexport

import (
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"

	"impress/internal/analysis"
)

// Config parameterizes the analyzer.
type Config struct {
	// Root is the import path of the public package whose directory
	// tree is checked and whose aliases make methods public API. Empty
	// means the module's root package.
	Root string
	// Extra lists directories, relative to Root's, of other modules
	// whose non-test code counts as references, such as a benchmark
	// module that imports internal packages. A missing directory
	// references nothing and is skipped.
	Extra []string
}

// New returns the deadexport analyzer.
func New(cfg Config) *analysis.Analyzer {
	var (
		loadedFor *analysis.Package // ModulePkgs[0] of the load dead describes
		dead      map[*analysis.Package][]candidate
	)
	return &analysis.Analyzer{
		Name: "deadexport",
		Doc:  "reports exports under internal/ that no non-test code references (whole-module loads only)",
		Run: func(pass *analysis.Pass) error {
			// The verdict is module-wide: compute it once per load and
			// report each package's share on its own pass.
			if loadedFor != pass.ModulePkgs[0] {
				found, err := scan(pass, cfg)
				if err != nil {
					return err
				}
				loadedFor, dead = pass.ModulePkgs[0], found
			}
			for _, c := range dead[pass.Pkg] {
				pass.Reportf(c.obj.Pos(), "exported %s %s has no non-test reference: delete it, or unexport it if its package needs it",
					c.kind, c.name)
			}
			return nil
		},
	}
}

// candidate is one exported declaration under internal/.
type candidate struct {
	pkg  *analysis.Package
	obj  types.Object
	kind string // "func", "method", "type", "var" or "const"
	name string // "Name", or "Recv.Name" for a method
	key  string
	recv *types.Named // a method's receiver type, else nil
}

// scan returns the module's unreferenced exports by package, or nil
// when the load does not cover the whole module.
func scan(pass *analysis.Pass, cfg Config) (map[*analysis.Package][]candidate, error) {
	rootPath := cmp.Or(cfg.Root, pass.ModulePath)
	i := slices.IndexFunc(pass.ModulePkgs, func(p *analysis.Package) bool { return p.PkgPath == rootPath })
	if i < 0 {
		return nil, nil
	}
	root := pass.ModulePkgs[i]
	if whole, err := loadedWhole(root.Dir, pass.ModulePkgs); !whole {
		return nil, err
	}

	own := make(map[string][]span)
	var cands []candidate
	for _, p := range pass.ModulePkgs {
		cands = append(cands, declare(p, internalBelow(rootPath, p.PkgPath), own)...)
	}
	used := make(map[string]bool)
	for _, p := range pass.ModulePkgs {
		markUses(p, used, own)
	}
	for _, dir := range cfg.Extra {
		dir = filepath.Join(root.Dir, dir)
		if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
			continue
		}
		pkgs, err := analysis.Load(dir, "./...")
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", dir, err)
		}
		for _, p := range pkgs {
			markUses(p, used, nil) // own spans are module positions
		}
	}

	public, ifaces := reexported(root), interfaces(pass.ModulePkgs)
	found := make(map[*analysis.Package][]candidate)
	for _, c := range cands {
		if used[c.key] || c.recv != nil && (public[c.recv.Obj()] || implements(c.recv, c.obj.Name(), ifaces)) {
			continue
		}
		found[c.pkg] = append(found[c.pkg], c)
	}
	return found, nil
}

// loadedWhole reports whether every package `go list ./...` names in
// dir was loaded.
func loadedWhole(dir string, pkgs []*analysis.Package) (bool, error) {
	cmd := exec.Command("go", "list", "-e", "-f", "{{.ImportPath}}", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return false, fmt.Errorf("go list ./... in %s: %w", dir, err)
	}
	for _, path := range strings.Fields(string(out)) {
		if !slices.ContainsFunc(pkgs, func(p *analysis.Package) bool { return p.PkgPath == path }) {
			return false, nil
		}
	}
	return true, nil
}

// internalBelow reports whether path is an internal package below root
// and not a test-support package.
func internalBelow(root, path string) bool {
	rel, ok := strings.CutPrefix(path, root+"/")
	elems := strings.Split(rel, "/")
	testSupport := func(elem string) bool { return strings.HasSuffix(elem, "test") }
	return ok && slices.Contains(elems, "internal") && !slices.ContainsFunc(elems, testSupport)
}

// span is a half-open source range.
type span struct{ pos, end token.Pos }

// markUses marks in used the key of every object p's files refer to,
// except from within the object's own spans.
func markUses(p *analysis.Package, used map[string]bool, own map[string][]span) {
	for _, file := range p.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			k, _ := key(p.TypesInfo.Uses[id])
			if k != "" && !slices.ContainsFunc(own[k], func(s span) bool { return s.pos <= id.Pos() && id.Pos() < s.end }) {
				used[k] = true
			}
			return true
		})
	}
}

// declare records in own each of p's package-level declarations as a
// span whose uses of the declared object do not count, and each method
// also as a span of its receiver type. When checked is set it returns
// p's exported declarations as candidates.
func declare(p *analysis.Package, checked bool, own map[string][]span) []candidate {
	var out []candidate
	add := func(id *ast.Ident, kind string, node ast.Node) {
		obj := p.TypesInfo.Defs[id]
		k, recv := key(obj)
		if k == "" {
			return
		}
		s, name := span{node.Pos(), node.End()}, id.Name
		own[k] = append(own[k], s)
		if recv != nil {
			rk, _ := key(recv.Obj())
			own[rk] = append(own[rk], s)
			kind, name = "method", recv.Obj().Name()+"."+name
		}
		if checked && id.IsExported() {
			out = append(out, candidate{pkg: p, obj: obj, kind: kind, name: name, key: k, recv: recv})
		}
	}
	for _, file := range p.Syntax {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name, "func", d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, "type", s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, d.Tok.String(), s)
						}
					}
				}
			}
		}
	}
	return out
}

// key names a package-level object or a method alike in every load, and
// returns a method's receiver type. Extra modules see the checked
// packages through export data, so their objects are not the
// source-checked ones. It returns "" for any other object.
func key(obj types.Object) (string, *types.Named) {
	if obj == nil || obj.Pkg() == nil {
		return "", nil
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		t := fn.Origin().Signature().Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			named = named.Origin()
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name(), named
		}
		return "", nil
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Pkg().Path() + "." + obj.Name(), nil
	}
	return "", nil
}

// reexported returns the named types the root package aliases.
func reexported(root *analysis.Package) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	scope := root.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !tn.IsAlias() {
			continue
		}
		if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
			out[named.Origin().Obj()] = true
		}
	}
	return out
}

// interfaces returns error, the errors package's protocols, and every
// package-level interface declared in pkgs or in the packages they
// import, transitively. errors.Unwrap, errors.Is and errors.As assert
// their protocols inside function bodies, which export data does not
// carry, so those are built from source here.
func interfaces(pkgs []*analysis.Package) []*types.Interface {
	var out []*types.Interface
	for _, src := range []string{"error", "interface{ Unwrap() error }", "interface{ Unwrap() []error }",
		"interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, _ := types.Eval(token.NewFileSet(), nil, token.NoPos, src) // constant, well-typed source
		out = append(out, tv.Type.Underlying().(*types.Interface))
	}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			// Implements is unspecified for uninstantiated generic types.
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 && types.IsInterface(named) {
				out = append(out, named.Underlying().(*types.Interface))
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	return out
}

// implements reports whether t's method named method implements one of
// ifaces.
func implements(t *types.Named, method string, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		for i := range iface.NumMethods() {
			if iface.Method(i).Name() == method && types.Implements(types.NewPointer(t), iface) {
				return true
			}
		}
	}
	return false
}
