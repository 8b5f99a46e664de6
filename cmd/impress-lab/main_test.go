package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"impress/internal/labd"
)

// testDaemon boots an in-process labd server over httptest and returns
// its base URL; the CLI under test talks to it exactly as it would to
// a real impress-labd.
func testDaemon(t *testing.T) string {
	t.Helper()
	srv, err := labd.New(labd.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts.URL
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var out, errOut bytes.Buffer
	code := run(ctx, args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code, _, errOut := runCLI(t, "frobnicate"); code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Errorf("unknown command: exit %d, stderr %q", code, errOut)
	}
	if code, _, _ := runCLI(t, "submit", "extra-arg"); code != 2 {
		t.Errorf("submit with positional arg: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "watch"); code != 2 {
		t.Errorf("watch without jobID: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "tables"); code != 2 {
		t.Errorf("tables without jobID: exit %d, want 2", code)
	}
}

// TestBadRequestsExitTwo pins the taxonomy across the wire and out the
// exit code: the daemon's 400s come back as usage errors (exit 2),
// exactly as the local CLI treats bad -scale or -only values.
func TestBadRequestsExitTwo(t *testing.T) {
	base := testDaemon(t)
	if code, _, errOut := runCLI(t, "submit", "-addr", base, "-scale", "bogus"); code != 2 {
		t.Errorf("bad scale: exit %d, want 2 (stderr %q)", code, errOut)
	}
	if code, _, errOut := runCLI(t, "submit", "-addr", base, "-only", "fig999"); code != 2 {
		t.Errorf("bad experiment ID: exit %d, want 2 (stderr %q)", code, errOut)
	}
}

func TestStatusUnknownJobIsUsageError(t *testing.T) {
	base := testDaemon(t)
	if code, _, _ := runCLI(t, "status", "-addr", base, "no-such-job"); code != 2 {
		t.Errorf("unknown job: exit %d, want 2 (invalid caller input)", code)
	}
}

// TestSubmitWatchStatusTables walks the whole client surface against a
// live daemon with an analytical job: submit -watch streams to done,
// status sees the same terminal snapshot, and tables -out writes the
// byte-exact per-experiment files.
func TestSubmitWatchStatusTables(t *testing.T) {
	base := testDaemon(t)

	code, out, errOut := runCLI(t, "submit", "-addr", base, "-analytical", "-watch")
	if code != 0 {
		t.Fatalf("submit -watch: exit %d (stderr %q)", code, errOut)
	}
	if !strings.Contains(out, "state: done") {
		t.Fatalf("watch output lacks the done transition:\n%s", out)
	}
	jobID := strings.Fields(out)[0]

	code, out, errOut = runCLI(t, "status", "-addr", base, jobID)
	if code != 0 {
		t.Fatalf("status: exit %d (stderr %q)", code, errOut)
	}
	if !strings.Contains(out, jobID+" done") {
		t.Fatalf("status output %q lacks %q", out, jobID+" done")
	}
	code, out, _ = runCLI(t, "status", "-addr", base)
	if code != 0 || !strings.Contains(out, jobID) {
		t.Fatalf("status list: exit %d, output %q lacks job %s", code, out, jobID)
	}

	dir := t.TempDir()
	code, out, errOut = runCLI(t, "tables", "-addr", base, "-out", dir, jobID)
	if code != 0 {
		t.Fatalf("tables: exit %d (stderr %q)", code, errOut)
	}
	if !strings.Contains(out, "wrote ") {
		t.Fatalf("tables output %q lacks write summary", out)
	}
	// The analytical tables are scale-independent, so they must match
	// the checked-in golden fixtures byte for byte.
	for _, id := range []string{"table1", "fig12"} {
		got, err := os.ReadFile(filepath.Join(dir, id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "golden", id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("tables -out wrote a %s.txt that differs from the golden fixture", id)
		}
	}
}
