package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway single-package module and returns
// its directory.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	return writeFiles(t, map[string]string{"x.go": src})
}

// writeFiles lays out a throwaway module holding files (paths relative
// to the module root) and returns its directory.
func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module example.com/seeded\n\ngo 1.24\n"
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// deadExportFiles is a module whose internal package exports a function
// nothing calls.
func deadExportFiles() map[string]string {
	return map[string]string{
		"x.go": "package seeded\n\nimport \"example.com/seeded/internal/dead\"\n\n// Run calls the live export.\nfunc Run() int { return dead.Live() }\n",
		"internal/dead/dead.go": "package dead\n\n// Live has a caller.\nfunc Live() int { return 1 }\n\n" +
			"// Unused has none.\nfunc Unused() int { return 2 }\n",
	}
}

// seededSrc carries a Figure15-class violation: float accumulation over
// map values. The map rule is module-wide, so it fires in any module,
// not just the impress strict packages.
const seededSrc = `package seeded

func Geomean(samples map[string]float64) float64 {
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum
}
`

const cleanSrc = `package seeded

import "sort"

func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
`

func TestSeededMapRangeViolationFails(t *testing.T) {
	dir := writeModule(t, seededSrc)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[determinism]") || !strings.Contains(out, "Figure15") {
		t.Fatalf("diagnostic does not name the determinism analyzer and bug class:\n%s", out)
	}
}

func TestSeededDeadExportFails(t *testing.T) {
	dir := writeFiles(t, deadExportFiles())
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[deadexport]") || !strings.Contains(out, "func Unused") || strings.Contains(out, "Live") {
		t.Fatalf("want one deadexport diagnostic naming Unused:\n%s", out)
	}
}

func TestCleanModulePasses(t *testing.T) {
	dir := writeModule(t, cleanSrc)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

func TestVettoolIdentity(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-V=full"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if !strings.HasPrefix(stdout.String(), "impress-lint version ") {
		t.Fatalf("-V=full output %q lacks the vettool identity prefix", stdout.String())
	}
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"determinism", "ctxfirst", "errtaxonomy", "hotpath", "deadexport"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output omits %s:\n%s", name, stdout.String())
		}
	}
}

func TestUnknownAnalyzerRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestGoVetVettool drives the real `go vet -vettool` protocol end to
// end: build the binary, point vet at the seeded module, and expect the
// determinism diagnostic to fail the vet run.
func TestGoVetVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	bin := filepath.Join(t.TempDir(), "impress-lint")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building impress-lint: %v\n%s", err, out)
	}

	vet := func(dir string) ([]byte, error) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
		cmd.Dir = dir
		return cmd.CombinedOutput()
	}
	out, err := vet(writeModule(t, seededSrc))
	if err == nil {
		t.Fatalf("go vet -vettool passed on a seeded map-range violation:\n%s", out)
	}
	if !strings.Contains(string(out), "nondeterministic order") {
		t.Fatalf("vet output lacks the determinism diagnostic:\n%s", out)
	}

	// deadexport needs the whole module, which the per-package vet
	// driver never loads, so there it reports nothing.
	if out, err := vet(writeFiles(t, deadExportFiles())); err != nil {
		t.Fatalf("go vet -vettool failed on a module whose only finding is a dead export: %v\n%s", err, out)
	}
}
