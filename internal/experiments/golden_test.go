package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false,
	"rewrite the golden experiment tables under testdata/golden")

// TestGoldenTables locks the QuickScale rendering of every experiment
// table byte-for-byte against testdata/golden/<id>.txt, so any silent
// drift in a figure the paper reproduces — a changed simulation result, a
// reordered row, a reformatted cell — fails the build. After an
// intentional change, regenerate with
//
//	go test ./internal/experiments -run TestGoldenTables -update
//
// and review the golden diff like any other code change.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-table comparison skipped in -short mode")
	}
	dir := filepath.Join("testdata", "golden")
	r := NewRunner(QuickScale())
	seen := map[string]bool{}
	tables, err := RunTables(context.Background(), r, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		if seen[tab.ID] {
			t.Fatalf("duplicate experiment ID %q", tab.ID)
		}
		seen[tab.ID] = true
		var buf bytes.Buffer
		tab.Render(&buf)
		path := filepath.Join(dir, tab.ID+".txt")
		if *updateGolden {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("experiment %q has no golden table (regenerate with -update): %v", tab.ID, err)
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Errorf("experiment %q drifted from its golden rendering:\n%s",
				tab.ID, firstDiff(string(want), buf.String()))
		}
	}
	if *updateGolden {
		return
	}
	// Every planned spec simulated exactly once, and no builder read a
	// spec that no plan names. TestDefinitionsPlanIsComplete checks each
	// table's plan on its own.
	planned, err := SpecsFor(r, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sims() != int64(len(planned)) {
		t.Errorf("the sweep simulated %d specs; the plans name %d", r.Sims(), len(planned))
	}
	// A golden file without a live experiment is drift too (an experiment
	// was removed or renamed without updating the goldens).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("golden directory missing (regenerate with -update): %v", err)
	}
	for _, e := range entries {
		id := strings.TrimSuffix(e.Name(), ".txt")
		if !seen[id] {
			t.Errorf("stale golden file %s: no experiment with ID %q", e.Name(), id)
		}
	}
}

// firstDiff renders the first line-level divergence between two table
// renderings, with enough context to locate it.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q", i+1, w, g)
		}
	}
	return "(renderings differ only in length)"
}
