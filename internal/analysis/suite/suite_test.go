package suite

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"impress/internal/analysis/hotpath"
)

// TestReplayGeneratorsAreHotRoots pins the replay generators as
// hot-path roots: both trace.Generator implementations feeding
// cpu.Core.Step — the materialized replayGen and the streaming
// streamGen — must carry the hotpath directive, so impress-lint walks
// their Next (and everything it reaches, the frame decode included)
// with the hot-loop rules. Deleting the annotation would silently drop
// the whole streaming replay path from the lint suite.
func TestReplayGeneratorsAreHotRoots(t *testing.T) {
	for _, tc := range []struct{ file, recv string }{
		{"replay.go", "replayGen"},
		{"reader.go", "streamGen"},
	} {
		if !isHotRoot(t, filepath.Join("..", "..", "trace", tc.file), tc.recv, "Next") {
			t.Errorf("%s: (%s).Next lost its %s directive; the replay hot loop would go unlinted",
				tc.file, tc.recv, hotpath.HotDirective)
		}
	}
}

// TestSecurityHarnessStepIsHotRoot pins the security harness's
// per-access step as a hot-path root, so impress-lint walks it and the
// paged damage table it calls with the hot-loop rules. The step runs
// hundreds of millions of times per attack search.
func TestSecurityHarnessStepIsHotRoot(t *testing.T) {
	if !isHotRoot(t, filepath.Join("..", "..", "security", "harness.go"), "harness", "step") {
		t.Errorf("harness.go: (harness).step lost its %s directive; the harness loop would go unlinted",
			hotpath.HotDirective)
	}
}

// TestSlotTrackersAreHotRoots pins the slot-table trackers' per-access
// methods as hot-path roots. The harness and the memory controller call
// them through the Tracker interface, which the hotpath walk does not
// follow, so without their own directives the slot table would go
// unlinted.
func TestSlotTrackersAreHotRoots(t *testing.T) {
	for _, tc := range []struct{ file, recv, name string }{
		{"graphene.go", "Graphene", "OnActivation"},
		{"mithril.go", "Mithril", "OnActivation"},
		{"mithril.go", "Mithril", "OnRFM"},
		{"abacus.go", "ABACuS", "OnActivation"},
	} {
		if !isHotRoot(t, filepath.Join("..", "..", "trackers", tc.file), tc.recv, tc.name) {
			t.Errorf("%s: (%s).%s lost its %s directive; the slot table would go unlinted",
				tc.file, tc.recv, tc.name, hotpath.HotDirective)
		}
	}
}

// isHotRoot reports whether the file at path declares method name on
// receiver recv with the hotpath directive in its doc comment.
func isHotRoot(t *testing.T, path, recv, name string) bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != name || fn.Recv == nil || fn.Doc == nil || recvNames(fn) != recv {
			continue
		}
		for _, c := range fn.Doc.List {
			if strings.TrimSpace(c.Text) == hotpath.HotDirective {
				return true
			}
		}
	}
	return false
}

// TestLegacyNoCtxNamesLiveFunctions keeps the ctx-first allowlist
// honest: every legacyNoCtx entry must name an exported top-level
// function of package impress. Deleting or renaming such a function
// then cannot leave a stale exemption behind for a later, unrelated
// declaration of the same name to slip through.
func TestLegacyNoCtxNamesLiveFunctions(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				funcs[fn.Name.Name] = true
			}
		}
	}
	for _, name := range legacyNoCtx {
		if !funcs[name] {
			t.Errorf("legacyNoCtx exempts %q, which is no exported function of package impress: drop the stale entry", name)
		}
	}
}

// recvNames returns the bare receiver type name of a method.
func recvNames(fn *ast.FuncDecl) string {
	if len(fn.Recv.List) == 0 {
		return ""
	}
	expr := fn.Recv.List[0].Type
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if ident, ok := expr.(*ast.Ident); ok {
		return ident.Name
	}
	return ""
}
