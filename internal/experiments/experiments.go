// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each experiment
// is a function returning a Table of the same rows/series the paper
// reports; the cmd/impress-experiments binary and the repository's
// benchmark harness invoke them.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"impress/internal/core"
	"impress/internal/errs"
	"impress/internal/resultstore"
	"impress/internal/security"
	"impress/internal/sim"
	"impress/internal/stats"
	"impress/internal/trace"
)

// Table is one regenerated result: a title, column headers, data rows and
// free-form notes comparing against the paper.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale controls simulation length: Quick for tests/benchmarks, Full for
// the complete reproduction.
type Scale struct {
	Name        string
	Warmup, Run int64
	// Workloads optionally restricts the workload list (nil = all 20).
	Workloads []string
}

// QuickScale is sized for CI: a representative workload subset and short
// runs. Shapes (who wins, roughly by how much) are stable at this scale;
// absolute percentages carry a few points of noise.
func QuickScale() Scale {
	return Scale{
		Name: "quick", Warmup: 20_000, Run: 100_000,
		Workloads: []string{"mcf", "gcc", "fotonik3d", "copy", "add", "add_copy"},
	}
}

// StandardScale runs all 20 workloads at a length where the geomeans are
// stable to about a percentage point; this is the scale EXPERIMENTS.md
// reports.
func StandardScale() Scale {
	return Scale{Name: "standard", Warmup: 50_000, Run: 250_000}
}

// FullScale runs all 20 workloads at the reproduction's full length.
func FullScale() Scale {
	return Scale{Name: "full", Warmup: 100_000, Run: 500_000}
}

// ScaleByName resolves the named experiment scale — the one vocabulary
// shared by the -scale CLI flags and the sweep-service job API, so a
// spec submitted to a daemon means exactly what it means locally. An
// unknown name returns an error wrapping errs.ErrBadSpec naming the
// known set.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return QuickScale(), nil
	case "standard":
		return StandardScale(), nil
	case "full":
		return FullScale(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: %w: unknown scale %q (want quick, standard, or full)",
			errs.ErrBadSpec, name)
	}
}

// Runner executes and memoizes simulation runs so experiments sharing a
// configuration (e.g. the No-RP baseline) pay for it once.
//
// Runner is safe for concurrent use: Run deduplicates concurrent requests
// for the same spec (singleflight), so a spec simulates exactly once no
// matter how many goroutines ask for it, and prefetch fans a spec list out
// over a worker pool. Results are independent of execution order — every
// simulation is seeded from its own Config (see sim.RunContext) — so a parallel
// prefetch followed by serial table assembly is byte-identical to the
// fully serial path.
type Runner struct {
	Scale Scale
	// Parallelism bounds how many simulations a sweep runs concurrently.
	// Zero (the default) means runtime.GOMAXPROCS(0); 1 forces the serial
	// path; negative values are clamped to 1. It does not limit direct Run
	// callers — they run on the calling goroutine (or wait on an in-flight
	// duplicate).
	Parallelism int
	// Clock selects the simulator clocking for every spec this runner
	// materializes. The exact modes (event-driven, cycle-accurate) are
	// bit-identical and share result-store keys, so between them this
	// changes speed only. ClockSampled is
	// explicitly approximate: its results carry confidence intervals and
	// are keyed separately in the store (resultstore.Spec.Sampled), so a
	// sampled sweep can never contaminate exact baselines, and RunTables
	// appends a confidence-interval note to each of its tables.
	Clock sim.ClockMode
	// MaxRelError is the sampled clock's statistical early-stop
	// threshold (sim.Config.MaxRelError); ignored by the exact modes.
	MaxRelError float64
	// Store, when non-nil, is the persistent result cache consulted
	// before every simulation and written back after. The in-memory memo
	// and the store share one canonical key (resultstore.SpecFor over the
	// materialized sim.Config), so the two lookups can never disagree. A
	// failed store write loses persistence only — the result is still
	// memoized and returned — and is counted in Store.Counters.
	Store *resultstore.Store
	// Progress, when non-nil, receives run-lifecycle events: one
	// ProgressSpecStarted per distinct spec followed by ProgressSpecCacheHit
	// or ProgressSpecFinished, and ProgressTableRendered per assembled
	// table under the context-aware entry points. Callbacks are
	// serialized; set it before the sweep starts and do not mutate it
	// while one runs.
	Progress func(Progress)

	// bindCtx is the cancellation signal bound by the context-aware
	// entry points (RunTables, PrefetchContext, impress.Lab); nil means
	// uncancellable. bindMu + bindCount make overlapping sweeps on one
	// runner race-free: the first binder's signal is shared by all and
	// held until the last overlapping sweep releases (documented on
	// PrefetchContext).
	bindMu    sync.Mutex
	bindCtx   context.Context
	bindCount int

	// runs memoizes simulations by canonical key; sims counts actual
	// simulator executions (memo and store hits excluded), which a
	// warm-store sweep asserts stays zero.
	runs memo[sim.Result]
	sims atomic.Int64

	// attacks/atkSims are the security-harness analogue of runs/sims,
	// backing Runner.Attack (see attack.go).
	attacks memo[security.Result]
	atkSims atomic.Int64

	// planned, when non-nil, makes this a planning copy (see plan): Run
	// and Attack append their spec to it and return the zero result.
	planned *buildPlan

	progressMu sync.Mutex
}

// runAbort carries a typed error out of the figure-assembly call tree by
// panic: Runner.Run and Runner.Attack return bare results (every table
// builder depends on that), so cancellation and input errors
// travel as this sentinel and the context-aware boundaries (RunTables,
// PrefetchContext) recover it back into an ordinary error. It
// implements error so an uncaught escape still prints cleanly.
type runAbort struct{ err error }

func (a *runAbort) Error() string { return a.err.Error() }
func (a *runAbort) Unwrap() error { return a.err }

// bind installs ctx as the runner's cancellation signal for one sweep
// and returns the release func. Entry points call it before spawning
// workers; nested and concurrent binds (a ctx-aware call from inside —
// or alongside — another) share the first signal, which stays bound
// until the last overlapping sweep releases — a sweep can never lose
// its cancellation because a sibling finished first.
func (r *Runner) bind(ctx context.Context) func() {
	r.bindMu.Lock()
	defer r.bindMu.Unlock()
	if r.bindCount == 0 {
		r.bindCtx = ctx
	}
	r.bindCount++
	return func() {
		r.bindMu.Lock()
		defer r.bindMu.Unlock()
		if r.bindCount--; r.bindCount == 0 {
			r.bindCtx = nil
		}
	}
}

// checkCtx panics with a runAbort when the bound context has ended; the
// context-aware boundary recovers it into the returned error.
func (r *Runner) checkCtx() {
	if err := r.runCtx().Err(); err != nil {
		panic(&runAbort{fmt.Errorf("experiments: sweep stopped: %w", errs.Cancelled(err))})
	}
}

// runCtx returns the context simulations run under: the bound one, or
// context.Background() when none is bound.
func (r *Runner) runCtx() context.Context {
	r.bindMu.Lock()
	defer r.bindMu.Unlock()
	if r.bindCtx != nil {
		return r.bindCtx
	}
	return context.Background()
}

// memo is a concurrent singleflight cache: the first caller of a key
// computes its value and concurrent callers wait for it. A panicking
// computation re-panics in every waiter rather than deadlocking them; a
// cancellation abort is then dropped from the memo, so a retry under a
// live context recomputes instead of replaying the stale cancellation.
type memo[T any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[T]
}

// memoEntry is one memoized (possibly in-flight) value. done is closed
// when res (or panicked) is valid.
type memoEntry[T any] struct {
	done     chan struct{}
	res      T
	panicked any
}

// do returns k's value, computing it with fn unless it is memoized or
// in flight.
func (m *memo[T]) do(k string, fn func() T) T {
	m.mu.Lock()
	if e, ok := m.m[k]; ok {
		m.mu.Unlock()
		<-e.done
		if e.panicked != nil {
			panic(e.panicked)
		}
		return e.res
	}
	if m.m == nil {
		m.m = make(map[string]*memoEntry[T])
	}
	e := &memoEntry[T]{done: make(chan struct{})}
	m.m[k] = e
	m.mu.Unlock()

	defer func() {
		if p := recover(); p != nil {
			if isCancelAbort(p) {
				m.mu.Lock()
				delete(m.m, k)
				m.mu.Unlock()
			}
			e.panicked = p
			close(e.done)
			panic(p)
		}
		close(e.done)
	}()
	e.res = fn()
	return e.res
}

// NewRunner builds a Runner at the given scale.
func NewRunner(scale Scale) *Runner {
	return &Runner{Scale: scale}
}

// parallelism resolves the effective worker count: 0 means GOMAXPROCS,
// negative clamps to serial.
func (r *Runner) parallelism() int {
	if r.Parallelism < 0 {
		return 1
	}
	if r.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Parallelism
}

// Workloads returns the workload list for this runner's scale. Built-in
// names keep their figure order; any remaining scale entry is resolved as
// a workload spec ("mix:..." co-runs, "attack:..." aggressors) and
// appended in scale order, so custom scales can put arbitrary scenarios
// through every experiment. A workload named twice (by one entry
// repeated or by two entries resolving to the same name) appears once,
// so no figure renders a row twice or weights it twice in a geomean. An
// unresolvable entry must not silently shrink a figure: it panics here,
// and the context-aware entry points (RunTables,
// impress.Lab.Experiments) recover that panic into a typed error
// wrapping errs.ErrUnknownWorkload instead of crashing mid-sweep.
func (r *Runner) Workloads() []trace.Workload {
	all := trace.Workloads()
	if r.Scale.Workloads == nil {
		return all
	}
	builtin := map[string]bool{}
	for _, w := range all {
		builtin[w.Name] = true
	}
	keep := map[string]bool{}
	var extras []trace.Workload
	for _, n := range r.Scale.Workloads {
		if builtin[n] {
			keep[n] = true
			continue
		}
		w, err := trace.WorkloadByName(n)
		if err != nil {
			panic(&runAbort{fmt.Errorf("experiments: scale %q: %w", r.Scale.Name, err)})
		}
		if !keep[w.Name] {
			keep[w.Name] = true
			extras = append(extras, w)
		}
	}
	var out []trace.Workload
	for _, w := range all {
		if keep[w.Name] {
			out = append(out, w)
		}
	}
	return append(out, extras...)
}

// Opt is an optional override of a simulation parameter. The zero value
// means "keep sim.DefaultConfig's value"; an explicitly set value —
// including an explicit zero — is carried distinctly, so overrides never
// alias the default in the memo key.
type Opt[T any] struct {
	Set   bool
	Value T
}

// TRH returns an explicit DesignTRH override.
func TRH(v float64) Opt[float64] { return Opt[float64]{Set: true, Value: v} }

// RFM returns an explicit RFMTH override.
func RFM(v int) Opt[int] { return Opt[int]{Set: true, Value: v} }

// RunSpec fully describes one simulation run for memoization. DesignTRH
// and RFMTH override sim.DefaultConfig only when explicitly set (via TRH
// and RFM); the zero value keeps the default.
type RunSpec struct {
	Workload  trace.Workload
	Design    core.Design
	Tracker   sim.TrackerKind
	DesignTRH Opt[float64]
	RFMTH     Opt[int]
}

// config materializes the sim configuration for this spec at a scale.
func (s RunSpec) config(scale Scale) sim.Config {
	cfg := sim.DefaultConfig(s.Workload, s.Design, s.Tracker)
	cfg.WarmupInstructions = scale.Warmup
	cfg.RunInstructions = scale.Run
	if s.DesignTRH.Set {
		cfg.DesignTRH = s.DesignTRH.Value
	}
	if s.RFMTH.Set {
		cfg.RFMTH = s.RFMTH.Value
	}
	return cfg
}

// config materializes the full sim configuration for one run under this
// runner's scale and clocking. It is the single materialization path:
// both the store key (storeSpec) and the executed run derive from it, so
// the key always describes exactly the run that produced the result —
// in particular, sampled runs key with their Sampled/MaxRelError fields.
func (r *Runner) config(spec RunSpec) sim.Config {
	cfg := spec.config(r.Scale)
	cfg.Clock = r.Clock
	if r.Clock == sim.ClockSampled {
		cfg.MaxRelError = r.MaxRelError
	}
	return cfg
}

// storeSpec returns the canonical resultstore spec for one run at this
// runner's scale. It is the single key-derivation path: the memo cache
// keys on storeSpec(spec).Key() and the persistent store looks up the
// identical Spec, so an in-memory hit and an on-disk hit can never name
// different simulations. resultstore memoizes each distinct spec's key
// for the whole process, so the many callers of a sweep (SpecsFor,
// ShardSpecs, prefetch, Run, annotateCI) hash each spec once.
func (r *Runner) storeSpec(spec RunSpec) resultstore.Spec {
	sp, err := resultstore.SpecFor(r.config(spec))
	if err != nil {
		// Unreachable: SpecFor fails only for trace-file replays, which
		// RunSpec cannot express.
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return sp
}

// Sims reports how many simulations this runner actually executed —
// memoized repeats and persistent-store hits are excluded. A second sweep
// against a warm Store keeps it at zero.
func (r *Runner) Sims() int64 { return r.sims.Load() }

// Run executes (or recalls) the described simulation. Concurrent calls
// with the same spec are deduplicated: one goroutine runs it through
// RunCached, the rest wait for its result, and memoized repeats emit no
// progress events.
//
// Run panics on simulation failure or cancellation (wrapped as a typed
// runAbort); the context-aware entry points recover that into an error,
// and every experiment table builder relies on the panicking signature.
func (r *Runner) Run(spec RunSpec) sim.Result {
	if r.planned != nil {
		r.planned.runs = append(r.planned.runs, spec)
		return sim.Result{}
	}
	r.checkCtx()
	sp := r.storeSpec(spec)
	k := string(sp.Key())
	return r.runs.do(k, func() sim.Result {
		cfg := r.config(spec)
		res, simulated, err := RunCached(r.runCtx(), r.Store, r.emit, cfg, sp, k)
		if err != nil {
			panic(&runAbort{fmt.Errorf("experiments: %s: %w", runLabel(cfg, sp), err)})
		}
		if simulated {
			r.sims.Add(1)
		}
		return res
	})
}

// RunCached is the one cached simulation step, behind Runner.Run and
// impress.Lab.Run: emit ProgressSpecStarted; with a store, serve a
// stored result as ProgressSpecCacheHit; otherwise attach the store's
// warmup checkpoints, simulate cfg under ctx, emit ProgressSpecFinished
// and write the result back (a failed write is counted by the store, not
// returned). sp, cfg's canonical spec, is used only with a store; key is
// the Key every event carries. simulated reports whether the simulator
// ran; its errors are returned unwrapped.
func RunCached(ctx context.Context, st *resultstore.Store, emit func(Progress), cfg sim.Config,
	sp resultstore.Spec, key string) (res sim.Result, simulated bool, err error) {
	ev := Progress{Kind: ProgressSpecStarted, Spec: runLabel(cfg, sp), Key: key}
	emit(ev)
	if st != nil {
		if res, ok := st.Get(sp); ok {
			ev.Kind = ProgressSpecCacheHit
			emit(ev)
			return res, false, nil
		}
		ev.WarmupRestored = st.AttachCheckpoints(&cfg, sp)
	}
	if res, err = sim.RunContext(ctx, cfg); err != nil {
		return sim.Result{}, false, err
	}
	ev.Kind, ev.Cycles = ProgressSpecFinished, res.Cycles
	emit(ev)
	if st != nil {
		_ = st.Put(sp, res)
	}
	return res, true, nil
}

// prefetch executes the given specs over a worker pool of r.Parallelism
// goroutines (GOMAXPROCS by default), deduplicating repeated and
// already-cached specs. Table assembly that follows then hits the memo
// cache only, so output is identical to running the specs serially. If any
// simulation panics, prefetch re-panics after the pool drains. When the
// runner is bound to a context that ends mid-sweep, workers stop pulling
// new specs, in-flight simulations return at their next macro-cycle
// boundary, and the pool drains before the cancellation surfaces —
// every result already produced is memoized (and store-written), so a
// rerun resumes warm.
func (r *Runner) prefetch(specs []RunSpec) {
	pool(r, specs, func(s RunSpec) string { return string(r.storeSpec(s).Key()) }, func(s RunSpec) { r.Run(s) })
}

// pool runs fn over the distinct specs (by key) on a worker pool of
// r.parallelism() goroutines, the engine behind prefetch and
// prefetchAttacks. If any fn panics, pool re-panics after the pool
// drains; on cancellation workers stop pulling specs and the drained
// pool raises the cancellation. fn memoizes by key (Run, Attack), so a
// serial pool hands it every spec in order: a repeat costs fn the key
// derivation a dedupe pass would cost, and a spec seen once is keyed
// once, not twice.
func pool[S any](r *Runner, specs []S, key func(S) string, fn func(S)) {
	if r.parallelism() <= 1 {
		for _, s := range specs {
			fn(s)
		}
		return
	}
	seen := make(map[string]bool, len(specs))
	var todo []S
	for _, s := range specs {
		if k := key(s); !seen[k] {
			seen[k] = true
			todo = append(todo, s)
		}
	}
	workers := min(r.parallelism(), len(todo))
	if workers <= 1 {
		for _, s := range todo {
			fn(s)
		}
		return
	}
	queue := make(chan S, len(todo))
	for _, s := range todo {
		queue <- s
	}
	close(queue)
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Cancellation makes every in-flight worker panic with a
			// routine runAbort at once, so keep the first panic but let
			// a genuine invariant panic (replay exhaustion, the
			// deadlock bound) from a sibling displace a routine
			// cancellation — it must not be masked behind a benign
			// "interrupted" report.
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					if panicked == nil || isCancelAbort(panicked) && !isCancelAbort(p) {
						panicked = p
					}
					panicMu.Unlock()
				}
			}()
			for s := range queue {
				if r.runCtx().Err() != nil {
					break // drain: stop starting new specs
				}
				fn(s)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	r.checkCtx() // all workers may have drained without running anything
}

// abortErr unwraps a panic value recovered at a context-aware boundary:
// a runAbort becomes its error, anything else (an invariant violation)
// re-panics.
func abortErr(p any) error {
	a, ok := p.(*runAbort)
	if !ok {
		panic(p)
	}
	return a.err
}

// isCancelAbort reports whether a recovered panic value is the routine
// cancellation abort (as opposed to an invariant violation).
func isCancelAbort(p any) bool {
	a, ok := p.(*runAbort)
	return ok && errors.Is(a.err, errs.ErrCancelled)
}

// PrefetchContext is prefetch under a context: it binds ctx for the
// sweep's duration and returns — instead of panicking — a typed error on
// cancellation (matching errs.ErrCancelled and ctx.Err()) or simulation
// failure. Completed specs stay memoized and store-written either way,
// and cancelled specs are dropped from the memo so a retry under a live
// context re-simulates them. Concurrent context-aware sweeps on one
// runner share the first caller's cancellation signal.
func (r *Runner) PrefetchContext(ctx context.Context, specs []RunSpec) (err error) {
	defer r.bind(ctx)()
	defer func() {
		if p := recover(); p != nil {
			err = abortErr(p)
		}
	}()
	r.prefetch(specs)
	return nil
}

// ShardSpecs returns the deterministic subset of specs owned by shard
// index (1-based) out of count. Specs are deduplicated by canonical key
// and each distinct simulation is assigned to exactly one shard by its
// key hash, so for any count the shards are pairwise disjoint and their
// union is the full deduplicated spec set — an exact cover. The
// assignment depends only on the canonical keys, so every machine in a
// fleet computes the same partition and the shards merge losslessly
// through a shared Store.
//
// Out-of-range index/count returns an error wrapping errs.ErrBadSpec —
// shard parameters that arrive over the wire (the impress-labd job API)
// must be rejectable without killing the server.
func (r *Runner) ShardSpecs(specs []RunSpec, index, count int) ([]RunSpec, error) {
	if count < 1 || index < 1 || index > count {
		return nil, fmt.Errorf("experiments: %w: shard %d/%d out of range (want 1 <= index <= count)",
			errs.ErrBadSpec, index, count)
	}
	seen := make(map[string]bool, len(specs))
	var out []RunSpec
	for _, s := range specs {
		k := r.storeSpec(s).Key()
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		if shardOf(k, count) == index-1 {
			out = append(out, s)
		}
	}
	return out, nil
}

// shardOf maps a canonical key to a shard in [0, count): the key is a
// sha256, so its leading 60 bits are uniformly distributed and taking
// them modulo count balances shards to within sampling noise.
func shardOf(k resultstore.Key, count int) int {
	v, err := strconv.ParseUint(string(k[:15]), 16, 64)
	if err != nil {
		panic(fmt.Sprintf("experiments: malformed result key %q: %v", k, err))
	}
	return int(v % uint64(count))
}

// baselineSpec is the unprotected (no tracker, no defense) run.
func baselineSpec(w trace.Workload) RunSpec {
	return RunSpec{Workload: w, Design: core.NewDesign(core.NoRP), Tracker: sim.TrackerNone}
}

// noRPSpec is the Rowhammer-only baseline for a tracker (the paper's
// "No-RP" normalization target).
func noRPSpec(w trace.Workload, tracker sim.TrackerKind, trh float64, rfmth int) RunSpec {
	return RunSpec{
		Workload: w, Design: core.NewDesign(core.NoRP), Tracker: tracker,
		DesignTRH: TRH(trh), RFMTH: RFM(rfmth),
	}
}

// baseline returns the unprotected (no tracker, no defense) run.
func (r *Runner) baseline(w trace.Workload) sim.Result {
	return r.Run(baselineSpec(w))
}

// noRP returns the Rowhammer-only baseline for a tracker (the paper's
// "No-RP" normalization target).
func (r *Runner) noRP(w trace.Workload, tracker sim.TrackerKind, trh float64, rfmth int) sim.Result {
	return r.Run(noRPSpec(w, tracker, trh, rfmth))
}

// geoMeanBy splits per-workload values into the paper's SPEC and STREAM
// classes and returns their geometric means.
func geoMeanBy(ws []trace.Workload, vals map[string]float64) (specGM, streamGM float64) {
	var spec, stream []float64
	for _, w := range ws {
		v, ok := vals[w.Name]
		if !ok {
			continue
		}
		if w.Stream {
			stream = append(stream, v)
		} else {
			spec = append(spec, v)
		}
	}
	if len(spec) > 0 {
		specGM = stats.GeoMean(spec)
	}
	if len(stream) > 0 {
		streamGM = stats.GeoMean(stream)
	}
	return specGM, streamGM
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
