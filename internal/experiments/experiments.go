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
	"math"
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
// matter how many goroutines ask for it, and a Plan fans its specs out
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
	// Slots, when non-nil, is a spec-slot bound that several runners can
	// share: its capacity is how many specs all of them run at once.
	// Every pool worker holds one slot while it runs one spec (a
	// simulation, an attack evaluation or an ablation-rfm harness row),
	// so runners sharing a one-slot bound never have two specs in
	// flight. Direct Run, Attack and harness calls outside a pool take
	// no slot. Nil (the default) leaves Parallelism as the only bound.
	Slots chan struct{}
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
	// entry points (Plan.Tables, Shard.Prefetch, EvaluateAttacks); nil
	// means uncancellable. bindMu + bindCount make overlapping sweeps on
	// one runner race-free: the first binder's signal is shared by all
	// and held until the last overlapping sweep releases (see bind).
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

	// derived counts derive calls: a plan derives each distinct spec
	// once, and nothing after it derives again.
	derived atomic.Int64

	// planned, when non-nil, makes this a planning copy (see plan): Run
	// and Attack append their spec to it and return the zero result.
	planned *buildPlan
	// replay, when non-nil, makes this an assembly copy (see
	// Plan.build): Run and Attack must repeat the planned calls and are
	// served from the planning runner's memo.
	replay *replay

	progressMu sync.Mutex
}

// runAbort carries a typed error out of the figure-assembly call tree by
// panic: Runner.Run and Runner.Attack return bare results (every table
// builder depends on that), so cancellation and input errors
// travel as this sentinel and the context-aware boundaries (Plan.Tables,
// Shard.Prefetch) recover it back into an ordinary error. It
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
// context.Background() when none is bound. An assembly copy runs under
// its planning runner's.
func (r *Runner) runCtx() context.Context {
	if r.replay != nil {
		return r.replay.p.r.runCtx()
	}
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
// both the store key and the executed run derive from it (see derive),
// so the key always describes exactly the run that produced the result —
// in particular, sampled runs key with their Sampled/MaxRelError fields.
func (r *Runner) config(spec RunSpec) sim.Config {
	cfg := spec.config(r.Scale)
	cfg.Clock = r.Clock
	if r.Clock == sim.ClockSampled {
		cfg.MaxRelError = r.MaxRelError
	}
	return cfg
}

// runEntry is one run spec with everything executing it needs, derived
// once: its sim.Config at the runner's scale and clocking, the
// canonical resultstore spec of that config, and its key, on which the
// memo and the persistent store both look the run up. A plan's entries
// also carry the spec's identity (id), which assembly checks each
// builder call against.
type runEntry struct {
	id   runID
	spec RunSpec
	cfg  sim.Config
	sp   resultstore.Spec
	key  string
}

// runID is a RunSpec's comparable identity. Floats are held by their
// bits, so -0 and NaN are told apart exactly as the store keys them.
type runID struct {
	workload string
	design   core.Design // Alpha zeroed; alpha holds its bits
	alpha    uint64
	tracker  sim.TrackerKind
	trh      Opt[uint64]
	rfmth    Opt[int]
}

func (s RunSpec) id() runID {
	id := runID{
		workload: s.Workload.Name,
		design:   s.Design,
		alpha:    math.Float64bits(s.Design.Alpha),
		tracker:  s.Tracker,
		trh:      Opt[uint64]{Set: s.DesignTRH.Set, Value: math.Float64bits(s.DesignTRH.Value)},
		rfmth:    s.RFMTH,
	}
	id.design.Alpha = 0
	return id
}

// derive is the single key-derivation path: spec's config, its
// canonical resultstore spec and that spec's key. The memo keys on the
// entry's key and the persistent store looks up the identical Spec, so
// an in-memory hit and an on-disk hit can never name different
// simulations. A plan derives each distinct spec once; direct Run
// callers derive on every call. A spec the store cannot key (a
// non-finite float) panics as a runAbort wrapping errs.ErrBadSpec.
func (r *Runner) derive(spec RunSpec) runEntry {
	r.derived.Add(1)
	cfg := r.config(spec)
	sp, err := resultstore.SpecFor(cfg)
	if err != nil {
		panic(&runAbort{fmt.Errorf("experiments: %w", err)})
	}
	return runEntry{spec: spec, cfg: cfg, sp: sp, key: string(sp.Key())}
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
	switch {
	case r.planned != nil:
		r.planned.runs = append(r.planned.runs, spec)
		return sim.Result{}
	case r.replay != nil:
		return r.replay.run(spec)
	}
	e := r.derive(spec)
	return r.run(&e)
}

// run executes (or recalls) a derived run, memoized by its key.
func (r *Runner) run(e *runEntry) sim.Result {
	r.checkCtx()
	return r.runs.do(e.key, func() sim.Result {
		res, simulated, err := RunCached(r.runCtx(), r.Store, r.emit, e.cfg, e.sp, e.key)
		if err != nil {
			panic(&runAbort{fmt.Errorf("experiments: %s: %w", runLabel(e.cfg, e.sp), err)})
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

// pool runs fn over specs, which must be distinct, on a worker pool of
// r.parallelism() goroutines: the engine behind plan prefetches,
// attack batches and ablation-rfm's harness rows. Every worker, on the
// serial path too, holds one of r.Slots while it runs one spec (see
// Runner.Slots), so fn must not start a pool of its own: a nested pool
// would wait for a slot its caller holds. If any fn panics, pool
// re-panics after the pool drains. When the runner is bound to a
// context that ends mid-sweep, workers stop pulling new specs,
// in-flight simulations return at their next macro-cycle boundary, and
// the drained pool raises the cancellation — every result already
// produced is memoized (and store-written), so a rerun resumes warm.
func pool[S any](r *Runner, specs []S, fn func(S)) {
	workers := min(r.parallelism(), len(specs))
	if workers <= 1 {
		for _, s := range specs {
			r.inSlot(func() { fn(s) })
		}
		return
	}
	queue := make(chan S, len(specs))
	for _, s := range specs {
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
				r.inSlot(func() { fn(s) })
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	r.checkCtx() // all workers may have drained without running anything
}

// inSlot runs fn holding one of r.Slots, if the runner has a bound. A
// worker waiting for a slot gives up with the cancellation abort when
// the bound context ends.
func (r *Runner) inSlot(fn func()) {
	if r.Slots != nil {
		select {
		case r.Slots <- struct{}{}:
		case <-r.runCtx().Done():
			r.checkCtx()
		}
		defer func() { <-r.Slots }()
	}
	fn()
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
