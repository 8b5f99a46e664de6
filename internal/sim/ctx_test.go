package sim

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"impress/internal/core"
	"impress/internal/errs"
	"impress/internal/trace"
)

func tinyCtxConfig(t *testing.T, name string) Config {
	t.Helper()
	w, err := trace.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(w, core.NewDesign(core.ImpressP), TrackerGraphene)
	cfg.WarmupInstructions = 5_000
	cfg.RunInstructions = 20_000
	return cfg
}

// mustRun runs cfg under an uncancellable context, failing tb on error.
func mustRun(tb testing.TB, cfg Config) Result {
	tb.Helper()
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestRunContextMatchesRun pins that cancellability has no side effect
// on results: a run under a live cancellable context (the
// per-macro-cycle poll active) is bit-identical to the uncancellable
// run, whose poll degenerates to a nil-check.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := tinyCtxConfig(t, "gcc")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustRun(t, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("cancellable run diverged from the uncancellable one:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunContextPreCancelled is the macro-cycle boundary contract at its
// sharpest: a context cancelled before the run starts must return the
// typed error without simulating anything.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, tinyCtxConfig(t, "mcf"))
	if err == nil {
		t.Fatal("pre-cancelled run reported success")
	}
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("error %v does not match errs.ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match context.Canceled", err)
	}
	if res.Cycles != 0 || len(res.IPC) != 0 {
		t.Fatalf("cancelled run returned a non-zero result: %+v", res)
	}
}

// TestRunContextCancelMidRun cancels a long run from another goroutine
// and requires RunContext to return promptly — the poll sits at every
// macro-cycle boundary, so the observable latency from cancel to return
// is microseconds; the test allows a generous scheduler bound.
func TestRunContextCancelMidRun(t *testing.T) {
	cfg := tinyCtxConfig(t, "mcf")
	cfg.RunInstructions = 100_000_000 // far beyond what the test waits for
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		err      error
		returned time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := RunContext(ctx, cfg)
		done <- outcome{err, time.Now()}
	}()
	time.Sleep(50 * time.Millisecond) // let the simulator get going
	cancelled := time.Now()
	cancel()
	select {
	case out := <-done:
		if !errors.Is(out.err, errs.ErrCancelled) || !errors.Is(out.err, context.Canceled) {
			t.Fatalf("mid-run cancel returned %v", out.err)
		}
		if lag := out.returned.Sub(cancelled); lag > 2*time.Second {
			t.Fatalf("run returned %v after cancellation; the macro-cycle poll is not firing", lag)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run never returned")
	}
}

// TestRunContextCancelDuringWarmup covers the warmup loop's poll.
func TestRunContextCancelDuringWarmup(t *testing.T) {
	cfg := tinyCtxConfig(t, "mcf")
	cfg.WarmupInstructions = 100_000_000
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, cfg)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("warmup cancel returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled warmup never returned")
	}
}

// TestValidateTypedErrors pins the error taxonomy for every class of
// invalid caller input.
func TestValidateTypedErrors(t *testing.T) {
	base := tinyCtxConfig(t, "gcc")
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no workload", func(c *Config) { c.Workload = trace.Workload{} }},
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"unknown tracker", func(c *Config) { c.Tracker = "bogus" }},
		{"unknown clock", func(c *Config) { c.Clock = ClockMode(42) }},
		{"negative budget", func(c *Config) { c.RunInstructions = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, errs.ErrBadSpec) {
				t.Fatalf("Validate() = %v, want ErrBadSpec", err)
			}
			if _, err := RunContext(context.Background(), cfg); !errors.Is(err, errs.ErrBadSpec) {
				t.Fatalf("RunContext() = %v, want ErrBadSpec", err)
			}
		})
	}
}

// TestRunContextBadTraceFile: unreadable and corrupt trace files are
// typed input errors, not panics.
func TestRunContextBadTraceFile(t *testing.T) {
	cfg := Config{TraceFile: filepath.Join(t.TempDir(), "missing.trace")}
	if _, err := RunContext(context.Background(), cfg); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("missing trace file: %v, want ErrBadSpec", err)
	}
}
