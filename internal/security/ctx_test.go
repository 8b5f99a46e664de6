package security

import (
	"context"
	"errors"
	"math"
	"testing"

	"impress/internal/attack"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/errs"
	"impress/internal/trackers"
)

func ctxTestConfig() Config {
	return Config{
		Design: core.NewDesign(core.ImpressP), DesignTRH: 4000, AlphaTrue: 1,
		Tracker: func(trh float64) trackers.Tracker { return trackers.NewGraphene(trh) },
	}
}

// TestRunContextMatchesRun pins that cancellability has no side effect
// on results: a run under a live cancellable context (the access poll
// active) is identical to the uncancellable run.
func TestRunContextMatchesRun(t *testing.T) {
	tm := dram.DDR5()
	p := func() attack.Pattern { return &attack.Rowhammer{Row: 1 << 20, Timings: tm} }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := RunContext(ctx, ctxTestConfig(), p())
	if err != nil {
		t.Fatal(err)
	}
	if want := run(t, ctxTestConfig(), p()); got != want {
		t.Fatalf("cancellable run diverged from the uncancellable one:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunContextPreCancelled: a cancelled context stops the harness at
// its first access boundary with the typed error.
func TestRunContextPreCancelled(t *testing.T) {
	tm := dram.DDR5()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, ctxTestConfig(), &attack.Rowhammer{Row: 1 << 20, Timings: tm})
	if !errors.Is(err, errs.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled attack returned %v; want ErrCancelled wrapping context.Canceled", err)
	}
}

// TestValidateTypedErrors: invalid configs are ErrBadSpec through both
// Validate and RunContext. A negative or NaN device alpha would make
// every access deal no damage, so any attack would look contained.
func TestValidateTypedErrors(t *testing.T) {
	tm := dram.DDR5()
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"no tracker", func(c *Config) { c.Tracker = nil }},
		{"negative alpha", func(c *Config) { c.AlphaTrue = -5 }},
		{"NaN alpha", func(c *Config) { c.AlphaTrue = math.NaN() }},
	} {
		name, cfg := tc.name, ctxTestConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, errs.ErrBadSpec) {
			t.Errorf("%s: Validate() = %v, want ErrBadSpec", name, err)
		}
		pattern := &attack.RowPress{Row: 1, TON: tm.TREFI, Timings: tm}
		if _, err := RunContext(context.Background(), cfg, pattern); !errors.Is(err, errs.ErrBadSpec) {
			t.Errorf("%s: RunContext() = %v, want ErrBadSpec", name, err)
		}
	}
}
