package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"impress/internal/sim"
)

// renderAll renders tables to one string for byte-level comparison.
func renderAll(tabs []*Table) string {
	var sb strings.Builder
	for _, t := range tabs {
		t.Render(&sb)
	}
	return sb.String()
}

// TestPrefetchDeterminism checks the tentpole guarantee: a parallel
// prefetch populating the memo cache yields byte-identical rendered tables
// to the fully serial path. Run at QuickScale over a representative subset
// of the simulation-backed experiments (tracker-less sweep, the headline
// tracker comparison incl. MINT/RFM, and the energy rollup).
func TestPrefetchDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale determinism comparison skipped in -short mode")
	}
	build := func(parallelism int) string {
		r := NewRunner(QuickScale())
		r.Parallelism = parallelism
		tables, err := RunTables(context.Background(), r, RunOptions{Only: []string{"fig3", "fig13", "energy"}})
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(tables)
	}
	serial := build(1)
	parallel := build(8)
	if serial != parallel {
		t.Fatalf("parallel output differs from serial output:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestConcurrentRunSingleflight hammers Runner.Run with the same spec from
// many goroutines: every caller must observe the identical result and the
// simulation must execute exactly once (one cache entry, one sim.Result).
// Run under -race this is the concurrency test the CI workflow relies on.
func TestConcurrentRunSingleflight(t *testing.T) {
	r := NewRunner(tinyScale())
	spec := baselineSpec(r.Workloads()[0])
	const goroutines = 16
	results := make([]sim.Result, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = r.Run(spec)
		}()
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i].Cycles != results[0].Cycles ||
			results[i].WeightedIPCSum != results[0].WeightedIPCSum {
			t.Fatalf("goroutine %d saw a different result", i)
		}
	}
	if len(r.runs.m) != 1 {
		t.Fatalf("cache has %d entries, want 1 (singleflight must dedup)", len(r.runs.m))
	}
}

// TestConcurrentRunDistinctSpecs mixes distinct specs across goroutines to
// exercise the cache lock under contention (meaningful under -race).
func TestConcurrentRunDistinctSpecs(t *testing.T) {
	r := NewRunner(tinyScale())
	ws := r.Workloads()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := ws[i%len(ws)]
			r.Run(baselineSpec(w))
			r.Run(noRPSpec(w, sim.TrackerGraphene, 4000, 80))
		}()
	}
	wg.Wait()
	if len(r.runs.m) != 2*len(ws) {
		t.Fatalf("cache has %d entries, want %d", len(r.runs.m), 2*len(ws))
	}
}

// prefetch runs specs over r's worker pool.
func prefetch(r *Runner, specs []RunSpec) {
	pool(r, specs, func(s RunSpec) { r.Run(s) })
}

// TestPrefetchDedupsAndCaches verifies that repeated specs handed to
// the pool at once simulate once (the memo's singleflight) and that
// assembly afterwards only hits the cache.
func TestPrefetchDedupsAndCaches(t *testing.T) {
	r := NewRunner(tinyScale())
	r.Parallelism = 4
	w := r.Workloads()[0]
	spec := baselineSpec(w)
	prefetch(r, []RunSpec{spec, spec, spec, noRPSpec(w, sim.TrackerGraphene, 4000, 80)})
	if len(r.runs.m) != 2 || r.Sims() != 2 {
		t.Fatalf("cache has %d entries after %d simulations, want 2 and 2", len(r.runs.m), r.Sims())
	}
	before := len(r.runs.m)
	r.Run(spec)
	if len(r.runs.m) != before {
		t.Fatal("Run after prefetch should be a pure cache hit")
	}
}

// TestPrefetchPanicPropagates checks that a panicking simulation does not
// hang the pool or its waiters: the panic resurfaces to the prefetch
// caller, and later Run calls on the poisoned entry re-panic too.
func TestPrefetchPanicPropagates(t *testing.T) {
	r := NewRunner(tinyScale())
	r.Parallelism = 2
	bad := RunSpec{Workload: r.Workloads()[0], Tracker: sim.TrackerKind("bogus")}
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { prefetch(r, []RunSpec{bad}) })
	mustPanic(func() { r.Run(bad) })
}

// TestRunnerZeroValueUsable checks the mutex-guarded cache lazily
// initializes so a zero-value Runner (plus a Scale) still works.
func TestRunnerZeroValueUsable(t *testing.T) {
	r := &Runner{Scale: tinyScale()}
	res := r.Run(baselineSpec(r.Workloads()[0]))
	if res.WeightedIPCSum <= 0 {
		t.Fatalf("bad result from zero-value runner: %+v", res)
	}
}

// TestSharedSlotsBoundSpecsInFlight pins Runner.Slots: two runners
// sharing a one-slot bound, one with a serial pool and one with a
// parallel pool, never have two specs in flight between them,
// simulations and attack evaluations alike. Their selection also runs
// ablation-rfm's harness pool, so it shows that simulations, attack
// evaluations and harness rows all complete at one slot without
// deadlock, with tables identical to an unbounded run.
func TestSharedSlotsBoundSpecsInFlight(t *testing.T) {
	opts := RunOptions{Only: []string{"fig3", "ablation-rfm", "attackzoo"}}
	slots := make(chan struct{}, 1)
	var (
		mu                    sync.Mutex
		inFlight, peak, specs int
	)
	progress := func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		switch p.Kind {
		case ProgressSpecStarted, ProgressAttackStarted:
			inFlight++
			specs++
			peak = max(peak, inFlight)
		case ProgressSpecCacheHit, ProgressSpecFinished, ProgressAttackCacheHit, ProgressAttackFinished:
			inFlight--
		}
	}
	var (
		wg     sync.WaitGroup
		tables [2]string
		errs   [2]error
	)
	for i := range tables {
		r := NewRunner(tinyScale())
		r.Parallelism, r.Slots, r.Progress = i+1, slots, progress
		wg.Add(1)
		go func() {
			defer wg.Done()
			tabs, err := RunTables(context.Background(), r, opts)
			tables[i], errs[i] = renderAll(tabs), err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if peak != 1 {
		t.Fatalf("%d specs were in flight at once under a one-slot bound, want 1", peak)
	}
	free := NewRunner(tinyScale())
	want, err := RunTables(context.Background(), free, opts)
	if err != nil {
		t.Fatal(err)
	}
	if specs != 2*int(free.Sims()+free.AttackSims()) {
		t.Fatalf("the bounded runners started %d specs, want twice the %d an unbounded run simulates and evaluates",
			specs, free.Sims()+free.AttackSims())
	}
	for i, got := range tables {
		if got != renderAll(want) {
			t.Errorf("runner %d's tables differ from an unbounded run's", i)
		}
	}
}

// TestAssemblyCopyCarriesSlots pins that a builder assembling its
// table sees its runner's Parallelism and Slots, so a pool it runs at
// assembly (ablation-rfm's harness rows) takes the same slots as the
// plan's prefetch.
func TestAssemblyCopyCarriesSlots(t *testing.T) {
	r := NewRunner(tinyScale())
	r.Parallelism, r.Slots = 3, make(chan struct{}, 1)
	var seen *Runner
	p := newPlan(r, []selectedDef{{Definition: Definition{ID: "probe", Build: func(a *Runner) *Table {
		seen = a
		return &Table{ID: "probe"}
	}}}})
	p.build(&p.defs[0])
	if seen == r || seen.Slots != r.Slots || seen.Parallelism != r.Parallelism {
		t.Fatalf("assembly copy has Parallelism %d and Slots %p; the runner has %d and %p",
			seen.Parallelism, seen.Slots, r.Parallelism, r.Slots)
	}
}
