package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impress"
	"impress/internal/core"
	"impress/internal/resultstore"
	"impress/internal/sim"
	"impress/internal/simcli"
	"impress/internal/trace"
)

// runCLI invokes the command's testable entry point. The developer's
// IMPRESS_CACHE is neutralized so no test silently reads from — or
// simulates into — a real store directory.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	t.Setenv("IMPRESS_CACHE", "")
	var out, errBuf bytes.Buffer
	code = run(context.Background(), args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestParseShard(t *testing.T) {
	for _, bad := range []string{"", "1", "a/b", "1/2/8", "1/2x", " 1/2", "1/ 2"} {
		if _, _, err := parseShard(bad); err == nil {
			t.Errorf("parseShard(%q) must fail", bad)
		}
	}
	i, n, err := parseShard("2/5")
	if err != nil || i != 2 || n != 5 {
		t.Fatalf("parseShard(2/5) = %d, %d, %v", i, n, err)
	}
}

// TestShardOutOfRangeIsTyped: well-formed but out-of-range shard specs
// are rejected by Runner.ShardSpecs — exit 2 with its ErrBadSpec
// message, never a panic.
func TestShardOutOfRangeIsTyped(t *testing.T) {
	for _, shard := range []string{"3/2", "0/2", "1/0", "-1/2"} {
		code, stdout, stderr := runCLI(t, "-shard", shard, "-cache-dir", t.TempDir())
		if code != 2 {
			t.Errorf("-shard %s: exit %d, want 2 (stderr %q)", shard, code, stderr)
		}
		if !strings.Contains(stderr, impress.ErrBadSpec.Error()) || !strings.Contains(stderr, "out of range") {
			t.Errorf("-shard %s: stderr %q lacks the ErrBadSpec range message", shard, stderr)
		}
		if stdout != "" {
			t.Errorf("-shard %s: printed %q", shard, stdout)
		}
	}
}

func TestShardFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-shard", "1/2"}, // no cache dir
		{"-shard", "0/2", "-cache-dir", t.TempDir()},                      // bad index
		{"-shard", "1/2", "-cache-dir", t.TempDir(), "-only", "fig3"},     // populate mode renders nothing
		{"-shard", "1/2", "-cache-dir", t.TempDir(), "-analytical"},       // ditto
		{"-shard", "1/2", "-cache-dir", t.TempDir(), "-out", t.TempDir()}, // ditto
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
}

func TestCacheSubcommandValidation(t *testing.T) {
	for _, args := range [][]string{
		{"cache"},
		{"cache", "-cache-dir", t.TempDir()},
		{"cache", "frobnicate", "-cache-dir", t.TempDir()},
		{"cache", "stats"}, // no dir anywhere
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
}

// tinyConfig is a fast full-system run used to populate stores in tests.
func tinyConfig(t *testing.T) sim.Config {
	t.Helper()
	w, err := trace.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(w, core.NewDesign(core.ImpressP), sim.TrackerGraphene)
	cfg.WarmupInstructions = 1000
	cfg.RunInstructions = 5000
	return cfg
}

func TestCacheStatsGCVerify(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One genuine entry (verify re-simulates it and must agree) ...
	lab, err := simcli.NewLab(store, &simcli.Counts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simcli.RunLab(context.Background(), lab, tinyConfig(t)); err != nil {
		t.Fatal(err)
	}
	// ... plus one corrupt file for stats/gc to report.
	junk := filepath.Join(dir, "zz")
	if err := os.MkdirAll(junk, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(junk, "junk.json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The Lab run persists its result plus a warmup-checkpoint entry;
	// verify below samples only the result entries.
	code, out, _ := runCLI(t, "cache", "stats", "-cache-dir", dir)
	if code != 0 || !strings.Contains(out, "entries:   2") || !strings.Contains(out, "invalid:   1") {
		t.Fatalf("cache stats exit %d:\n%s", code, out)
	}

	code, out, _ = runCLI(t, "cache", "verify", "-sample", "0", "-cache-dir", dir)
	if code != 0 || !strings.Contains(out, "1 ok, 0 mismatched") {
		t.Fatalf("cache verify exit %d:\n%s", code, out)
	}

	code, out, _ = runCLI(t, "cache", "gc", "-cache-dir", dir)
	if code != 0 || !strings.Contains(out, "removed 1 invalid files") {
		t.Fatalf("cache gc exit %d:\n%s", code, out)
	}

	// After gc the genuine entry must still verify.
	code, out, _ = runCLI(t, "cache", "verify", "-sample", "0", "-cache-dir", dir)
	if code != 0 || !strings.Contains(out, "1 ok") {
		t.Fatalf("cache verify after gc exit %d:\n%s", code, out)
	}
}

// TestCacheVerifyAllSkippedFails builds a store holding only a
// trace-file entry (not reconstructible, so verify must skip it) and
// expects verify to fail: a gate that compared nothing must not pass.
func TestCacheVerifyAllSkippedFails(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "gcc.trace")
	rec, err := trace.RecordContext(context.Background(), w, 2, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteFile(tracePath); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t)
	cfg.TraceFile = tracePath
	sp, err := resultstore.SpecFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(sp, sim.Result{Workload: "gcc"}); err != nil {
		t.Fatal(err)
	}

	code, out, stderr := runCLI(t, "cache", "verify", "-sample", "0", "-cache-dir", dir)
	if code != 1 || !strings.Contains(stderr, "nothing was actually verified") {
		t.Fatalf("all-skipped verify exit %d (want 1):\n%s\n%s", code, out, stderr)
	}
}

// TestCacheVerifyFlagsTamperedEntry rewrites a cached result and expects
// verify to fail loudly: the store's contents must never silently win
// over the simulator.
func TestCacheVerifyFlagsTamperedEntry(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t)
	lab, err := simcli.NewLab(store, &simcli.Counts{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simcli.RunLab(context.Background(), lab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := resultstore.SpecFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Cycles++ // a plausible but wrong cached result
	if err := store.Put(sp, res); err != nil {
		t.Fatal(err)
	}

	code, out, stderr := runCLI(t, "cache", "verify", "-sample", "0", "-cache-dir", dir)
	if code != 1 || !strings.Contains(out, "MISMATCH") {
		t.Fatalf("cache verify exit %d (want 1 with MISMATCH):\n%s\n%s", code, out, stderr)
	}
}

// TestWarmCacheRerunIsByteIdenticalWithZeroSims is the CLI-level
// acceptance criterion: the second -only fig3 run against a warm cache
// simulates nothing and renders byte-identical tables. Two run() calls
// share no in-process state (each builds its own Runner and Store), so
// this is the cross-process path minus the exec.
func TestWarmCacheRerunIsByteIdenticalWithZeroSims(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale fig3 simulation skipped in -short mode")
	}
	dir := t.TempDir()

	code, cold, coldErr := runCLI(t, "-only", "fig3", "-cache-dir", dir)
	if code != 0 {
		t.Fatalf("cold run exit %d:\n%s", code, coldErr)
	}
	if !strings.Contains(coldErr, "[cache] simulated=42") {
		t.Fatalf("cold run should simulate the 42 fig3 specs:\n%s", coldErr)
	}

	code, warm, warmErr := runCLI(t, "-only", "fig3", "-cache-dir", dir)
	if code != 0 {
		t.Fatalf("warm run exit %d:\n%s", code, warmErr)
	}
	if !strings.Contains(warmErr, "[cache] simulated=0") {
		t.Fatalf("warm run must perform zero simulations:\n%s", warmErr)
	}
	if cold != warm {
		t.Fatal("warm-cache rendering differs from the cold run")
	}
}

// TestShardPopulateSummaries drives the CLI's shard populate mode and its
// summary line; it picks one small shard out of many so the test stays
// fast (partition exactness lives in internal/experiments, and the
// full two-shard merge against the golden tables is a CI job).
func TestShardPopulateSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("shard populate simulation skipped in -short mode")
	}
	dir := t.TempDir()
	// Use many shards so one shard stays small and fast: exactness of the
	// partition is covered in internal/experiments; here we check the CLI
	// plumbing and summary output.
	code, out, stderr := runCLI(t, "-shard", "40/300", "-cache-dir", dir)
	if code != 0 {
		t.Fatalf("shard run exit %d:\n%s", code, stderr)
	}
	if !strings.Contains(out, "shard 40/300:") || !strings.Contains(out, "hits=0") {
		t.Fatalf("shard summary missing:\n%s", out)
	}
	// Re-running the same shard hits the store for every owned spec.
	code, out, _ = runCLI(t, "-shard", "40/300", "-cache-dir", dir)
	if code != 0 || !strings.Contains(out, "simulated=0") {
		t.Fatalf("second shard run should be fully cached (exit %d):\n%s", code, out)
	}
}

// TestUnknownOnlyIDExits2: unknown experiment IDs surface as usage
// errors (the registry now lives in internal/experiments and reports a
// typed ErrBadSpec naming the known set).
func TestUnknownOnlyIDExits2(t *testing.T) {
	code, _, stderr := runCLI(t, "-only", "fig999")
	if code != 2 || !strings.Contains(stderr, "unknown experiment ID") {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	code, _, stderr = runCLI(t, "-analytical", "-only", "fig3")
	if code != 2 || !strings.Contains(stderr, "simulation-backed") {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
}

// TestInterruptedSweepHintsResume is the ISSUE satellite: an
// interrupted sweep exits non-zero and points at the cache directory to
// resume from. A pre-cancelled context stands in for SIGINT (main wires
// SIGINT/SIGTERM to the same ctx via simcli.SignalContext).
func TestInterruptedSweepHintsResume(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("IMPRESS_CACHE", "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errBuf bytes.Buffer
	code := run(ctx, []string{"-only", "fig3", "-cache-dir", dir}, &out, &errBuf)
	stderr := errBuf.String()
	if code != 1 {
		t.Fatalf("interrupted sweep exit %d (want 1):\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "interrupted:") ||
		!strings.Contains(stderr, "resume by rerunning with the same -cache-dir "+dir) {
		t.Fatalf("interrupt notice/resume hint missing:\n%s", stderr)
	}
	// The cache summary still renders, from the progress stream.
	if !strings.Contains(stderr, "[cache] simulated=0") {
		t.Fatalf("cache summary missing:\n%s", stderr)
	}
}

// TestInterruptedShardHintsResume: shard populate mode reports progress
// made before the interrupt and the resume hint.
func TestInterruptedShardHintsResume(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("IMPRESS_CACHE", "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errBuf bytes.Buffer
	code := run(ctx, []string{"-shard", "1/300", "-cache-dir", dir}, &out, &errBuf)
	stderr := errBuf.String()
	if code != 1 || !strings.Contains(stderr, "interrupted:") {
		t.Fatalf("interrupted shard exit %d:\n%s\n%s", code, out.String(), stderr)
	}
	if !strings.Contains(stderr, "owned specs were simulated before the interrupt") {
		t.Fatalf("shard interrupt summary missing:\n%s", stderr)
	}
}

// TestOutWriteFailureAbortsRun: a failed -out write exits 1 with the
// write error (and cancels the rest of the sweep rather than assembling
// the remaining tables).
func TestOutWriteFailureAbortsRun(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// -out under an existing regular file: MkdirAll fails on the first table.
	code, _, stderr := runCLI(t, "-analytical", "-only", "table1,table2", "-out", filepath.Join(blocker, "sub"))
	if code != 1 || !strings.Contains(stderr, "not a directory") {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
}
