package impress_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"impress"
)

func labTestConfig(t *testing.T) impress.SimConfig {
	t.Helper()
	w, err := impress.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := impress.DefaultSimConfig(w, impress.NewDesign(impress.ImpressP), impress.TrackerGraphene)
	cfg.WarmupInstructions = 5_000
	cfg.RunInstructions = 20_000
	return cfg
}

// TestLabRunStoreRoundTrip: a Lab with a store serves the second run
// from disk, bit-identically, and streams the expected progress events.
func TestLabRunStoreRoundTrip(t *testing.T) {
	var events []impress.ProgressKind
	lab, err := impress.NewLab(
		impress.WithStore(t.TempDir()),
		impress.WithProgress(func(p impress.Progress) { events = append(events, p.Kind) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := labTestConfig(t)
	cold, err := lab.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := lab.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("store round trip is not bit-identical")
	}
	want := []impress.ProgressKind{
		impress.ProgressSpecStarted, impress.ProgressSpecFinished,
		impress.ProgressSpecStarted, impress.ProgressSpecCacheHit,
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("progress events %v, want %v", events, want)
	}
}

// TestLabTypedErrors walks the error taxonomy through the public API.
func TestLabTypedErrors(t *testing.T) {
	lab, err := impress.NewLab()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Invalid sim config.
	bad := labTestConfig(t)
	bad.Tracker = "bogus"
	if _, err := lab.Run(ctx, bad); !errors.Is(err, impress.ErrBadSpec) {
		t.Fatalf("Lab.Run bad tracker: %v, want ErrBadSpec", err)
	}

	// Unknown workload spec resolution.
	if _, err := impress.WorkloadByName("not-a-workload"); !errors.Is(err, impress.ErrUnknownWorkload) {
		t.Fatalf("WorkloadByName: %v, want ErrUnknownWorkload", err)
	}

	// Unknown workload inside a scale, surfaced through Lab.Experiments
	// (not a mid-sweep panic).
	scale := impress.QuickScale()
	scale.Workloads = []string{"gcc", "definitely-not-real"}
	if _, err := lab.Experiments(ctx, scale); !errors.Is(err, impress.ErrUnknownWorkload) {
		t.Fatalf("Lab.Experiments bad scale: %v, want ErrUnknownWorkload", err)
	}

	// Unknown experiment ID.
	if _, err := lab.Experiments(ctx, impress.QuickScale(), impress.ExperimentsOnly("fig999")); !errors.Is(err, impress.ErrBadSpec) {
		t.Fatalf("Lab.Experiments bad ID: %v, want ErrBadSpec", err)
	}

	// Invalid attack config.
	if _, err := lab.Attack(ctx, impress.AttackConfig{}, &impress.RowhammerPattern{Row: 1, Timings: impress.DDR5()}); !errors.Is(err, impress.ErrBadSpec) {
		t.Fatalf("Lab.Attack empty config: %v, want ErrBadSpec", err)
	}

	// Invalid record counts.
	w, err := impress.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Record(ctx, w, 0, 100, 1); !errors.Is(err, impress.ErrBadSpec) {
		t.Fatalf("Lab.Record zero cores: %v, want ErrBadSpec", err)
	}

	// Bad option.
	if _, err := impress.NewLab(impress.WithClock(impress.SimClockMode(99))); !errors.Is(err, impress.ErrBadSpec) {
		t.Fatalf("WithClock(99): %v, want ErrBadSpec", err)
	}
}

// TestLabCancellation: every Lab run kind honors a pre-cancelled
// context with the typed error.
func TestLabCancellation(t *testing.T) {
	lab, err := impress.NewLab()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := lab.Run(ctx, labTestConfig(t)); !errors.Is(err, impress.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Lab.Run cancelled: %v", err)
	}
	// Cancellation must not depend on cache warmth: a warm store hit
	// under a dead context still fails.
	warm, err := impress.NewLab(impress.WithStore(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(context.Background(), labTestConfig(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(ctx, labTestConfig(t)); !errors.Is(err, impress.ErrCancelled) {
		t.Fatalf("warm-store Lab.Run under a cancelled ctx returned %v; want ErrCancelled", err)
	}
	acfg := impress.AttackConfig{
		Design: impress.NewDesign(impress.ImpressP), DesignTRH: 4000, AlphaTrue: 1,
		Tracker: func(trh float64) impress.Tracker { return impress.NewGraphene(trh) },
	}
	if _, err := lab.Attack(ctx, acfg, &impress.RowhammerPattern{Row: 1, Timings: impress.DDR5()}); !errors.Is(err, impress.ErrCancelled) {
		t.Fatalf("Lab.Attack cancelled: %v", err)
	}
	if _, err := lab.Experiments(ctx, impress.QuickScale()); !errors.Is(err, impress.ErrCancelled) {
		t.Fatalf("Lab.Experiments cancelled: %v", err)
	}
	w, err := impress.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Record(ctx, w, 2, 100_000, 1); !errors.Is(err, impress.ErrCancelled) {
		t.Fatalf("Lab.Record cancelled: %v", err)
	}
}

// TestLabExperimentsCancelsHarnessTables: the security-harness tables
// run under the sweep's context. Cancelled 100 ms into the security
// matrix (seconds of harness work), Lab.Experiments must return the
// typed cancellation error within a second instead of finishing the
// matrix and reporting success.
func TestLabExperimentsCancelsHarnessTables(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	defer time.AfterFunc(100*time.Millisecond, cancel).Stop()
	tables, err := newLab(t).Experiments(ctx, impress.QuickScale(), impress.ExperimentsOnly("security"))
	if err == nil {
		t.Fatalf("cancelled security sweep returned %d tables and no error", len(tables))
	}
	if !errors.Is(err, impress.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled security sweep: %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond+time.Second {
		t.Fatalf("security sweep returned %v after start, want within 1s of the 100ms cancel", elapsed)
	}
}

// TestLabRecordReplay: the Lab's record/replay path preserves the
// bit-identical replay contract, including through a shared store.
func TestLabRecordReplay(t *testing.T) {
	lab, err := impress.NewLab()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := impress.WorkloadByName("mix:gcc,attack:hammer")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := lab.Record(ctx, w, 2, 2_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/corun.trace"
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	cfg := impress.DefaultSimConfig(impress.Workload{}, impress.NewDesign(impress.ImpressP), impress.TrackerGraphene)
	cfg.WarmupInstructions = 1_000
	cfg.RunInstructions = 5_000
	replayed, err := lab.Replay(ctx, path, cfg)
	if err != nil {
		t.Fatal(err)
	}

	live := cfg
	live.Workload = w
	live.Cores = 2
	liveRes, err := lab.Run(ctx, live)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, liveRes) {
		t.Fatalf("replay diverged from live run:\nreplay %+v\nlive   %+v", replayed, liveRes)
	}
}

// TestLabExperimentsAnalyticalStream: the analytical subset renders
// through the Lab with table streaming and table progress events.
func TestLabExperimentsAnalyticalStream(t *testing.T) {
	var tableEvents []string
	lab, err := impress.NewLab(
		impress.WithParallelism(1),
		impress.WithProgress(func(p impress.Progress) {
			if p.Kind == impress.ProgressTableRendered {
				tableEvents = append(tableEvents, p.Table)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []string
	tables, err := lab.Experiments(context.Background(), impress.QuickScale(),
		impress.ExperimentsOnly("table1", "table2", "fig4"),
		impress.ExperimentsAnalytical(),
		impress.ExperimentsOnTable(func(tb *impress.ExperimentTable) { streamed = append(streamed, tb.ID) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"table1", "table2", "fig4"}
	ids := make([]string, len(tables))
	for i, tb := range tables {
		ids[i] = tb.ID
	}
	if !reflect.DeepEqual(ids, want) || !reflect.DeepEqual(streamed, want) || !reflect.DeepEqual(tableEvents, want) {
		t.Fatalf("tables %v, streamed %v, events %v; want %v in paper order", ids, streamed, tableEvents, want)
	}
}
