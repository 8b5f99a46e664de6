package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"impress/internal/errs"
	"impress/internal/resultstore"
)

// fig3Only runs RunTables restricted to fig3 — 42 distinct QuickScale
// specs, the smallest simulation-backed sweep.
func fig3Only(ctx context.Context, r *Runner) ([]*Table, error) {
	return RunTables(ctx, r, RunOptions{Only: []string{"fig3"}})
}

const fig3Specs = 42 // 6 workloads x (baseline + 6 tMRO points)

// TestCancellationMidSweep is the resumability contract end to end
// (ISSUE satellite): cancel a QuickScale sweep from its own progress
// stream, require the typed error promptly, require the store to hold
// only complete, verifiable entries, and require a warm rerun to finish
// with simulated < total.
func TestCancellationMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale sweep skipped in -short mode")
	}
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	const cancelAfter = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(QuickScale())
	r.Parallelism = 1
	r.Store = store
	var startedAfterCancel, finished int
	cancelled := false
	r.Progress = func(p Progress) {
		switch p.Kind {
		case ProgressSpecStarted:
			if cancelled {
				startedAfterCancel++
			}
		case ProgressSpecFinished:
			if finished++; finished == cancelAfter {
				cancelled = true
				cancel()
			}
		}
	}

	_, err = fig3Only(ctx, r)
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if !errors.Is(err, errs.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v; want ErrCancelled wrapping context.Canceled", err)
	}
	// Within one spec boundary: at Parallelism 1 the cancel fires inside
	// spec k's finished event, so no further spec may start.
	if startedAfterCancel != 0 {
		t.Fatalf("%d specs started after cancellation; the sweep must stop at the spec boundary", startedAfterCancel)
	}

	// The store holds only complete, verifiable entries: every file
	// parses (no Invalid), and each entry's key round-trips its spec.
	stats, err := store.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Invalid != 0 {
		t.Fatalf("store holds %d invalid entries after cancellation; writes must stay atomic", stats.Invalid)
	}
	entries, err := store.Entries()
	if err != nil {
		t.Fatal(err)
	}
	// The completed-work contract is about the result entries.
	var results []resultstore.Entry
	for _, e := range entries {
		if e.Kind == "" {
			results = append(results, e)
		}
	}
	if len(results) != cancelAfter {
		t.Fatalf("store holds %d result entries; the %d completed simulations should have persisted",
			len(results), cancelAfter)
	}
	for _, e := range results {
		if got, ok := store.Get(e.Spec); !ok || got.Cycles != e.Result.Cycles {
			t.Fatalf("entry %s does not round-trip through Get", e.Key[:12])
		}
	}

	// Warm rerun: a fresh runner over the same store completes and
	// simulates strictly less than the full sweep.
	r2 := NewRunner(QuickScale())
	r2.Parallelism = 1
	r2.Store = store
	tables, err := fig3Only(context.Background(), r2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "fig3" {
		t.Fatalf("warm rerun rendered %d tables", len(tables))
	}
	if sims := r2.Sims(); sims != fig3Specs-cancelAfter {
		t.Fatalf("warm rerun simulated %d of %d specs; want the %d the cancelled sweep did not finish",
			sims, fig3Specs, fig3Specs-cancelAfter)
	}
}

// TestCancellationDrainsParallelPrefetch: with a parallel pool, a
// cancelled Shard.Prefetch returns the typed error after the pool
// drains, and in-flight simulations persist to the store.
func TestCancellationDrainsParallelPrefetch(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale sweep skipped in -short mode")
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(QuickScale())
	r.Parallelism = 4
	r.Store = store
	var mu sync.Mutex
	finished := 0
	r.Progress = func(p Progress) {
		// Runner callbacks are serialized, but lock anyway: the test
		// also reads finished after the sweep.
		mu.Lock()
		defer mu.Unlock()
		if p.Kind == ProgressSpecFinished {
			if finished++; finished == 2 {
				cancel()
			}
		}
	}
	err = wholePlan(t, r, RunOptions{Only: []string{"fig3"}}).Prefetch(ctx)
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled prefetch returned %v", err)
	}
	stats, err := store.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Invalid != 0 {
		t.Fatalf("store holds %d invalid entries", stats.Invalid)
	}
	entries, err := store.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var results int64
	for _, e := range entries {
		if e.Kind == "" {
			results++
		}
	}
	if results != r.Sims() {
		t.Fatalf("store holds %d result entries but the runner simulated %d; completed in-flight work must persist",
			results, r.Sims())
	}
}

// TestUnknownScaleWorkloadSurfacesTypedError is the ISSUE satellite:
// a typo in a scale's workload list surfaces as ErrUnknownWorkload
// through the context-aware API instead of panicking mid-sweep.
func TestUnknownScaleWorkloadSurfacesTypedError(t *testing.T) {
	scale := QuickScale()
	scale.Workloads = append(scale.Workloads, "no-such-workload")
	r := NewRunner(scale)
	_, err := RunTables(context.Background(), r, RunOptions{})
	if err == nil {
		t.Fatal("unknown scale workload reported success")
	}
	if !errors.Is(err, errs.ErrUnknownWorkload) {
		t.Fatalf("got %v; want ErrUnknownWorkload", err)
	}
	if !strings.Contains(err.Error(), "no-such-workload") {
		t.Fatalf("error %q does not name the bad workload", err)
	}
}

// TestUnknownExperimentIDTypedError: RunTables rejects unknown IDs (and
// simulation-backed IDs under the analytical restriction) with
// ErrBadSpec before any work starts.
func TestUnknownExperimentIDTypedError(t *testing.T) {
	r := NewRunner(QuickScale())
	_, err := RunTables(context.Background(), r, RunOptions{Only: []string{"fig999"}})
	if !errors.Is(err, errs.ErrBadSpec) || !strings.Contains(err.Error(), "fig999") {
		t.Fatalf("unknown ID returned %v", err)
	}
	_, err = RunTables(context.Background(), r, RunOptions{Only: []string{"fig3"}, Analytical: true})
	if !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("analytical+fig3 returned %v", err)
	}
	if sims := r.Sims(); sims != 0 {
		t.Fatalf("validation errors must precede work; %d specs simulated", sims)
	}
}

// TestProgressDeterministicSerial is the ISSUE satellite: at
// Parallelism 1 the ordered progress event sequence is byte-stable
// across runs.
func TestProgressDeterministicSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale sweep skipped in -short mode")
	}
	record := func() []string {
		var events []string
		r := NewRunner(QuickScale())
		r.Parallelism = 1
		r.Progress = func(p Progress) { events = append(events, p.String()) }
		if _, err := fig3Only(context.Background(), r); err != nil {
			t.Fatal(err)
		}
		return events
	}
	a, b := record(), record()
	if len(a) != len(b) {
		t.Fatalf("event counts differ across runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across runs:\n %s\n %s", i, a[i], b[i])
		}
	}
	// 42 specs x (started + finished) + 1 table event.
	if want := 2*fig3Specs + 1; len(a) != want {
		t.Fatalf("serial fig3 emitted %d events, want %d:\n%s", len(a), want, strings.Join(a, "\n"))
	}
}

// TestProgressBalancesAtAnyParallelism is the ISSUE satellite's second
// half: at any parallelism started == finished + cache-hit, cold and
// warm.
func TestProgressBalancesAtAnyParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale sweep skipped in -short mode")
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	count := func(parallelism int) (started, cacheHits, finished int) {
		r := NewRunner(QuickScale())
		r.Parallelism = parallelism
		r.Store = store
		r.Progress = func(p Progress) {
			switch p.Kind {
			case ProgressSpecStarted:
				started++
			case ProgressSpecCacheHit:
				cacheHits++
			case ProgressSpecFinished:
				finished++
			}
		}
		if _, err := fig3Only(context.Background(), r); err != nil {
			t.Fatal(err)
		}
		return
	}
	started, cacheHits, finished := count(8) // cold, parallel
	if started != fig3Specs || finished != fig3Specs || cacheHits != 0 {
		t.Fatalf("cold parallel run: started=%d cache-hits=%d finished=%d; want %d/0/%d",
			started, cacheHits, finished, fig3Specs, fig3Specs)
	}
	started, cacheHits, finished = count(3) // warm, different parallelism
	if started != fig3Specs || cacheHits != fig3Specs || finished != 0 {
		t.Fatalf("warm run: started=%d cache-hits=%d finished=%d; want %d/%d/0",
			started, cacheHits, finished, fig3Specs, fig3Specs)
	}
}

// TestRunTablesMatchesAll pins that the context-aware boundary renders
// exactly what the table builder renders when called directly.
func TestRunTablesMatchesAll(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale sweep skipped in -short mode")
	}
	render := func(tables []*Table) string {
		var b strings.Builder
		for _, tb := range tables {
			tb.Render(&b)
		}
		return b.String()
	}
	ra := NewRunner(QuickScale())
	ctxTables, err := fig3Only(context.Background(), ra)
	if err != nil {
		t.Fatal(err)
	}
	rb := NewRunner(QuickScale())
	if got, want := render(ctxTables), render([]*Table{Figure3(rb)}); got != want {
		t.Fatalf("RunTables rendering diverged from the direct builder:\n%s", diffHint(got, want))
	}
}

func diffHint(a, b string) string {
	return fmt.Sprintf("--- RunTables ---\n%s\n--- direct ---\n%s", a, b)
}

// TestCancelledRunnerIsRetryable: a cancellation must not poison the
// memo — retrying the sweep on the SAME runner under a live context
// completes (the cancelled in-flight specs re-simulate).
func TestCancelledRunnerIsRetryable(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale sweep skipped in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(QuickScale())
	r.Parallelism = 2
	finished := 0
	r.Progress = func(p Progress) {
		if p.Kind == ProgressSpecFinished {
			if finished++; finished == 2 {
				cancel()
			}
		}
	}
	shard := wholePlan(t, r, RunOptions{Only: []string{"fig3"}})
	if err := shard.Prefetch(ctx); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled prefetch returned %v", err)
	}
	r.Progress = nil
	if err := shard.Prefetch(context.Background()); err != nil {
		t.Fatalf("retry on the same runner failed: %v", err)
	}
	if _, err := fig3Only(context.Background(), r); err != nil {
		t.Fatalf("rendering on the retried runner failed: %v", err)
	}
}

// TestHarnessTablesRaiseCancellation: every harness-backed builder runs
// under the runner's bound context and raises the runAbort RunTables
// recovers — ablation-rfm included, whose rows run on goroutines and
// must re-raise their errors on the builder's goroutine.
func TestHarnessTablesRaiseCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range []struct {
		id    string
		build func(*Runner) *Table
	}{
		{"eq5", ImpressNWorstCase}, {"fig18", Figure18}, {"security", SecuritySummary},
		{"prac", PRACTable}, {"ablation-rfm", AblationRFMPacing},
	} {
		for _, parallelism := range []int{1, 2} {
			r := NewRunner(QuickScale())
			r.Parallelism = parallelism
			release := r.bind(ctx)
			p := func() (p any) {
				defer func() { p = recover() }()
				b.build(r)
				return nil
			}()
			release()
			if a, ok := p.(*runAbort); !ok || !errors.Is(a.err, errs.ErrCancelled) || !errors.Is(a.err, context.Canceled) {
				t.Errorf("%s at parallelism %d: builder under a cancelled context raised %v, want a runAbort matching ErrCancelled and context.Canceled",
					b.id, parallelism, p)
			}
		}
	}
}
