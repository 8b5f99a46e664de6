// Package ctxfirst enforces the context-first public API contract of
// DESIGN.md §9: every exported entry point of the configured boundary
// packages takes a context.Context as its first parameter, except for a
// frozen allowlist of pure constructors/converters. It generalizes (and replaces) the former
// api_ctx_test.go AST gate; the allowlist is configuration, not code,
// so the rule itself is reusable against any boundary package.
package ctxfirst

import (
	"go/ast"
	"go/types"

	"impress/internal/analysis"
)

// Config parameterizes the analyzer.
type Config struct {
	// Packages are the boundary package import paths the rule applies
	// to (typically the module root).
	Packages []string
	// AllowFuncs freezes the exported package-level functions that may
	// omit the context: pure constructors, converters and calculators
	// with no run to cancel. The list only ever grows, with a review
	// note in the PR that grows it.
	AllowFuncs []string
	// RunTypes are the exported receiver types whose methods perform
	// runs and therefore need a context (e.g. Lab). Methods on other
	// types — results, options, specs — are data carriers and exempt.
	RunTypes []string
	// AllowMethods freezes run-type methods that perform no run work,
	// as "Type.Method".
	AllowMethods []string
}

// New returns the ctxfirst analyzer.
func New(cfg Config) *analysis.Analyzer {
	boundary := stringSet(cfg.Packages)
	allowFuncs := stringSet(cfg.AllowFuncs)
	runTypes := stringSet(cfg.RunTypes)
	allowMethods := stringSet(cfg.AllowMethods)
	return &analysis.Analyzer{
		Name: "ctxfirst",
		Doc: "requires exported entry points of the boundary packages to take a context.Context first, " +
			"modulo the frozen pure-constructor/legacy allowlist",
		Run: func(pass *analysis.Pass) error {
			if !boundary[pass.Pkg.PkgPath] {
				return nil
			}
			for _, file := range pass.Pkg.Syntax {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || !fn.Name.IsExported() {
						continue
					}
					name := fn.Name.Name
					switch {
					case fn.Recv == nil:
						if allowFuncs[name] || firstParamIsContext(pass, fn) {
							continue
						}
						pass.Reportf(fn.Name.Pos(),
							"public entry point %s does not take a context.Context as its first parameter; "+
								"give it one (preferred), or — only for a pure constructor/converter — add it to the "+
								"frozen ctxfirst allowlist with justification", name)
					case runTypes[receiverTypeName(fn)]:
						qualified := receiverTypeName(fn) + "." + name
						if allowMethods[qualified] || firstParamIsContext(pass, fn) {
							continue
						}
						pass.Reportf(fn.Name.Pos(),
							"public entry point %s does not take a context.Context as its first parameter; "+
								"give it one (preferred), or — only for a method that performs no run work — add it to the "+
								"frozen ctxfirst allowlist with justification", qualified)
					}
				}
			}
			return nil
		},
	}
}

func stringSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

// firstParamIsContext reports whether fn's first parameter has static
// type context.Context.
func firstParamIsContext(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	params := fn.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	t := pass.Pkg.TypesInfo.TypeOf(params.List[0].Type)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// receiverTypeName returns the name of fn's receiver type, stripped of
// any pointer.
func receiverTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
