// Package hotpath enforces hot-loop hygiene (DESIGN.md §10): functions
// annotated //impress:hotpath — the simulator macro loop, the memory
// controller tick, cache access, the core step — and every in-module
// function statically reachable from them must not use defer, the fmt
// or reflect packages, escaping closures, or conversions that box a
// concrete value into an interface. These are the allocation and
// dynamic-dispatch constructs whose cost the event-driven clock exists
// to avoid paying per cycle.
//
// One deliberate exemption keeps the rule honest rather than noisy:
// arguments to panic are exempt (invariant-violation messages may
// format freely — the process is dying).
//
// The walk resolves static calls only: calls through interfaces
// (tracker methods, the CPU's MemorySystem) and function values are
// not followed. Implementations behind those interfaces that are hot
// in practice carry their own //impress:hotpath annotation. With a
// whole-module load (cmd/impress-lint standalone) the walk crosses
// package boundaries; under per-package drivers (go vet -vettool) it
// degrades to same-package callees.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"impress/internal/analysis"
)

// HotDirective marks a function as a hot-path root.
const HotDirective = "//impress:hotpath"

// New returns the hotpath analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "hotpath",
		Doc: "forbids defer, fmt, reflect, escaping closures and interface boxing in //impress:hotpath " +
			"functions and their statically-reachable in-module callees",
		Run: run,
	}
}

// funcNode is one in-module function with a body.
type funcNode struct {
	pkg  *analysis.Package
	decl *ast.FuncDecl
	obj  *types.Func
	// root names the annotated function this one is reachable from
	// ("" while not known to be hot).
	root string
}

func run(pass *analysis.Pass) error {
	index := make(map[*types.Func]*funcNode)
	var roots []*funcNode
	for _, pkg := range pass.ModulePkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{pkg: pkg, decl: fn, obj: obj}
				index[obj] = node
				if hasDirective(fn, HotDirective) {
					node.root = funcName(obj)
					roots = append(roots, node)
				}
			}
		}
	}

	// Deterministic root order makes multi-root reachability attribute
	// each function to the same root on every run.
	sort.Slice(roots, func(i, j int) bool { return roots[i].root < roots[j].root })
	queue := append([]*funcNode(nil), roots...)
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		for _, callee := range callees(node, index) {
			if callee.root != "" {
				continue
			}
			callee.root = node.root
			queue = append(queue, callee)
		}
	}

	var hot []*funcNode
	for _, node := range index {
		if node.root != "" && node.pkg == pass.Pkg {
			hot = append(hot, node)
		}
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].decl.Pos() < hot[j].decl.Pos() })
	for _, node := range hot {
		check(pass, node)
	}
	return nil
}

// callees returns the in-module functions node calls statically, in
// source order.
func callees(node *funcNode, index map[*types.Func]*funcNode) []*funcNode {
	var out []*funcNode
	info := node.pkg.TypesInfo
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var obj types.Object
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			obj = info.Uses[fun]
		case *ast.SelectorExpr:
			// A method selected through an interface has no body to
			// descend into; Uses resolves to the interface method, which
			// is absent from the index, so it is skipped naturally.
			obj = info.Uses[fun.Sel]
		}
		if fn, ok := obj.(*types.Func); ok {
			if callee, ok := index[fn]; ok {
				out = append(out, callee)
			}
		}
		return true
	})
	return out
}

// check reports every forbidden construct in one hot function.
func check(pass *analysis.Pass, node *funcNode) {
	info := node.pkg.TypesInfo
	name := funcName(node.obj)
	via := ""
	if node.root != name {
		via = " (reachable from " + HotDirective + " " + node.root + ")"
	}

	exempt := panicArgRanges(info, node.decl.Body)
	invoked := immediatelyInvoked(node.decl.Body)

	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if exempt.contains(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hot function %s%s: defer costs a frame record per call; restructure the cleanup",
				name, via)
		case *ast.SelectorExpr:
			if pkgName, ok := info.Uses[selectorPkg(n)].(*types.PkgName); ok {
				switch pkgName.Imported().Path() {
				case "fmt", "reflect":
					pass.Reportf(n.Pos(), "%s.%s in hot function %s%s: %s allocates and reflects per call; "+
						"only panic arguments may use it",
						pkgName.Imported().Name(), n.Sel.Name, name, via, pkgName.Imported().Name())
				}
			}
		case *ast.FuncLit:
			if !invoked[n] {
				pass.Reportf(n.Pos(), "closure in hot function %s%s escapes (it is not immediately invoked): "+
					"closures capture and may allocate per call", name, via)
				return false // do not double-report its body
			}
		case *ast.CallExpr:
			checkBoxing(pass, info, n, name, via)
		}
		return true
	})
}

// checkBoxing reports interface-boxing conversions at one call: an
// explicit conversion to an interface type, or a concrete argument
// passed for an interface-typed parameter.
func checkBoxing(pass *analysis.Pass, info *types.Info, call *ast.CallExpr, name, via string) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: T(x).
		if isInterface(tv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0]) {
			pass.Reportf(call.Pos(), "conversion boxes a concrete value into %s in hot function %s%s: "+
				"interface boxing allocates; keep the value concrete",
				types.TypeString(tv.Type, nil), name, via)
		}
		return
	}
	// Builtins get per-call signatures recorded (panic: func(interface{}))
	// but box nothing the program can keep: panic is exempt by design and
	// the rest take concrete types.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := info.Uses[fun].(*types.Builtin); ok {
			return
		}
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return // type error
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isInterface(pt) && boxes(info, arg) {
			pass.Reportf(arg.Pos(), "argument boxes a concrete value into %s in hot function %s%s: "+
				"interface boxing allocates; keep the parameter concrete or hoist the call off the hot path",
				types.TypeString(pt, nil), name, via)
		}
	}
}

// boxes reports whether passing arg as an interface would allocate a
// box. Existing interfaces and nil pass through unchanged, and
// pointer-shaped values (pointers, channels, maps, funcs) fit the
// interface data word directly — only genuine values box.
func boxes(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.UntypedNil {
			return false
		}
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// posRange is a half-open source position interval.
type posRange struct{ lo, hi token.Pos }

// rangeSet is a set of source ranges.
type rangeSet []posRange

func (rs rangeSet) contains(p token.Pos) bool {
	for _, r := range rs {
		if r.lo <= p && p < r.hi {
			return true
		}
	}
	return false
}

// panicArgRanges collects the source ranges of panic(...) arguments;
// constructs inside them are exempt from every hot-path rule.
func panicArgRanges(info *types.Info, body *ast.BlockStmt) rangeSet {
	var rs rangeSet
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				for _, arg := range call.Args {
					rs = append(rs, posRange{arg.Pos(), arg.End()})
				}
			}
		}
		return true
	})
	return rs
}

// hasDirective reports whether fn's doc comment carries the directive
// as its own line.
func hasDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// immediatelyInvoked returns the func literals that are the function
// operand of a call expression (func(){...}() — executed inline, no
// escape).
func immediatelyInvoked(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	m := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				m[lit] = true
			}
		}
		return true
	})
	return m
}

// selectorPkg returns the package identifier of a pkg.Name selector, or
// nil.
func selectorPkg(sel *ast.SelectorExpr) *ast.Ident {
	id, _ := sel.X.(*ast.Ident)
	return id
}

// funcName names fn for diagnostics, package-qualified for methods.
func funcName(fn *types.Func) string {
	full := fn.FullName()
	// Trim the module-internal prefix for readability:
	// (impress/internal/memctrl.Controller).Tick -> (memctrl.Controller).Tick
	return strings.ReplaceAll(full, "impress/internal/", "")
}
