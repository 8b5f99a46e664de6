package impress

import (
	"context"
	"fmt"
	"sync"

	"impress/internal/attack"
	"impress/internal/errs"
	"impress/internal/experiments"
	"impress/internal/resultstore"
	"impress/internal/security"
	"impress/internal/sim"
	"impress/internal/synth"
	"impress/internal/trace"
)

// ---- Run lifecycle: typed errors (DESIGN.md §9) ----
//
// Every context-first entry point classifies caller-input failures under
// these sentinels, matchable with errors.Is. Internal invariant
// violations (replay exhaustion, deadlock bounds) still panic — they
// are bugs, not inputs.
var (
	// ErrUnknownWorkload marks a workload spec that resolves to nothing:
	// a misspelled built-in name, an unknown "attack:<pattern>", or a
	// mix entry naming either.
	ErrUnknownWorkload = errs.ErrUnknownWorkload
	// ErrBadSpec marks structurally invalid caller input: a config
	// failing validation, an unreadable or corrupt trace file, an
	// unknown experiment ID.
	ErrBadSpec = errs.ErrBadSpec
	// ErrCancelled marks a run stopped by its context; errors wrapping
	// it also wrap the originating ctx.Err(), so both
	// errors.Is(err, ErrCancelled) and errors.Is(err, context.Canceled)
	// hold.
	ErrCancelled = errs.ErrCancelled
)

// ---- Run lifecycle: progress events ----

// Progress is one event on a Lab's progress stream: spec
// started/cache-hit/finished (with simulated cycles) and table-rendered
// notifications. See ProgressKind for the balance invariant.
type Progress = experiments.Progress

// ProgressKind enumerates progress event kinds. Every distinct
// simulation emits exactly one ProgressSpecStarted followed by exactly
// one of ProgressSpecCacheHit (served from the persistent store) or
// ProgressSpecFinished (simulated), so started == cache-hit + finished
// when a run completes; at parallelism 1 the full sequence is
// deterministic. Security-harness attack evaluations (sweeps over
// attack specs, adversarial synthesis) follow the same lifecycle under
// the distinct ProgressAttack* kinds, so counting ProgressSpec* events
// always counts performance simulations and nothing else.
type ProgressKind = experiments.ProgressKind

// The progress event kinds.
const (
	ProgressSpecStarted    = experiments.ProgressSpecStarted
	ProgressSpecCacheHit   = experiments.ProgressSpecCacheHit
	ProgressSpecFinished   = experiments.ProgressSpecFinished
	ProgressTableRendered  = experiments.ProgressTableRendered
	ProgressAttackStarted  = experiments.ProgressAttackStarted
	ProgressAttackCacheHit = experiments.ProgressAttackCacheHit
	ProgressAttackFinished = experiments.ProgressAttackFinished
)

// ---- The Lab ----

// Lab is a handle on the reproduction's run machinery — the one way in.
// It owns the resources runs share (the persistent result
// store, the simulation worker pool, the progress stream) and exposes
// every run kind as a context-first, error-returning method: Run
// (performance simulation), Attack (security harness), Experiments
// (table/figure regeneration), Record and Replay (trace pipeline).
//
// All methods honor context cancellation promptly — simulations stop
// within one macro cycle, sweeps within one spec boundary — returning an
// error matching both ErrCancelled and ctx.Err(); invalid input returns
// errors matching ErrBadSpec or ErrUnknownWorkload instead of panicking.
// A Lab with a store makes every run restartable: results persist as
// each simulation completes (atomic writes), so a cancelled sweep rerun
// resumes warm.
//
// A Lab is safe for concurrent use. The zero-argument NewLab() Lab is
// fully functional: no store, GOMAXPROCS parallelism, event-driven
// clock, no progress stream.
type Lab struct {
	store       *resultstore.Store
	parallelism int
	clock       sim.ClockMode
	maxRelError float64
	progress    func(Progress)

	progressMu sync.Mutex
}

// LabOption configures a Lab under construction; see With*.
type LabOption func(*Lab) error

// NewLab builds a Lab from functional options. It fails only when an
// option does — e.g. WithStore on an uncreatable directory.
func NewLab(opts ...LabOption) (*Lab, error) {
	l := &Lab{}
	for _, opt := range opts {
		if err := opt(l); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// WithStore attaches the persistent, content-addressed result store at
// dir (created if needed; see ResultStore) to every run the Lab
// performs. An empty dir is a no-op, so CLI flag values can be passed
// through unconditionally.
func WithStore(dir string) LabOption {
	return func(l *Lab) error {
		if dir == "" {
			return nil
		}
		st, err := resultstore.Open(dir)
		if err != nil {
			return err
		}
		l.store = st
		return nil
	}
}

// WithResultStore attaches an already-open result store (nil detaches).
func WithResultStore(st *ResultStore) LabOption {
	return func(l *Lab) error {
		l.store = st
		return nil
	}
}

// WithParallelism bounds how many simulations run concurrently during
// sweeps (0 = GOMAXPROCS, 1 = serial). Output is byte-identical at
// every level.
func WithParallelism(n int) LabOption {
	return func(l *Lab) error {
		l.parallelism = n
		return nil
	}
}

// WithClock sets the default simulator clocking for configs that leave
// Clock at its zero value (explicitly non-zero configs win). The exact
// modes are bit-identical; the choice trades speed against the
// cycle-accurate reference. SimClockSampled is explicitly approximate —
// interval sampling with 95% confidence intervals on the estimates (see
// WithMaxRelError). An unknown mode fails with ErrBadSpec.
func WithClock(mode SimClockMode) LabOption {
	return func(l *Lab) error {
		if err := mode.Validate(); err != nil {
			return err
		}
		l.clock = mode
		return nil
	}
}

// WithMaxRelError sets the sampled-mode convergence target: once every
// tracked metric's 95% CI relative half-width drops to target or below,
// the run stops sampling early. Zero keeps the fixed interval count;
// negative targets fail config validation at run time. It only affects
// configs running under SimClockSampled.
func WithMaxRelError(target float64) LabOption {
	return func(l *Lab) error {
		l.maxRelError = target
		return nil
	}
}

// WithProgress attaches a progress callback. Events are delivered
// serialized (fn needs no locking) from whichever goroutine produced
// them; keep fn fast — it runs on the simulation path.
func WithProgress(fn func(Progress)) LabOption {
	return func(l *Lab) error {
		l.progress = fn
		return nil
	}
}

// Store returns the Lab's attached result store (nil when none), e.g.
// for cache accounting or maintenance alongside runs.
func (l *Lab) Store() *ResultStore { return l.store }

// emit delivers one progress event under the Lab-wide mutex. Runs the
// Lab drives directly (Run/Replay) call it, and newRunner routes sweep
// events through it too, so one lock serializes the callback across
// every concurrent entry point.
func (l *Lab) emit(p Progress) {
	if l.progress == nil {
		return
	}
	l.progressMu.Lock()
	defer l.progressMu.Unlock()
	l.progress(p)
}

// withClock applies the Lab's default clock mode to a config that left
// Clock at the zero value, and the Lab's convergence target to sampled
// configs that left MaxRelError unset.
func (l *Lab) withClock(cfg SimConfig) SimConfig {
	if cfg.Clock == SimClockEventDriven {
		cfg.Clock = l.clock
	}
	if cfg.Clock == SimClockSampled && cfg.MaxRelError == 0 {
		cfg.MaxRelError = l.maxRelError
	}
	return cfg
}

// Run executes one performance simulation. Invalid input — a config
// failing SimConfig.Validate, an unreadable trace file — returns an
// error matching ErrBadSpec; cancellation stops the simulator within
// one macro cycle and returns an error matching ErrCancelled and
// ctx.Err(). With a store attached the result is served from — and
// persisted to — the content-addressed cache, emitting spec
// started/cache-hit/finished progress events either way. Run keeps no
// in-memory memo: every call takes the cached-run step afresh.
func (l *Lab) Run(ctx context.Context, cfg SimConfig) (SimResult, error) {
	// Uniform cancellation regardless of cache warmth: a dead context
	// fails here, exactly as it would through Lab.Experiments, instead
	// of succeeding whenever the store happens to be warm.
	if err := ctx.Err(); err != nil {
		return SimResult{}, fmt.Errorf("impress: run not started: %w", errs.Cancelled(err))
	}
	cfg = l.withClock(cfg)
	if l.store == nil && l.progress == nil {
		return sim.RunContext(ctx, cfg)
	}
	// The store key requires the canonical spec — for trace replays that
	// means reading and hashing the file. A store-less run never derives
	// it: its events are labelled from the config and carry an empty Key.
	var sp resultstore.Spec
	var key string
	if l.store != nil {
		var err error
		if sp, err = resultstore.SpecFor(cfg); err != nil {
			return SimResult{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		key = string(sp.Key())
	}
	res, _, err := experiments.RunCached(ctx, l.store, l.emit, cfg, sp, key)
	return res, err
}

// Attack replays an adversarial pattern through the single-bank
// security harness. Invalid configs (see AttackConfig.Validate) return
// errors matching ErrBadSpec; cancellation is honored at access
// granularity.
func (l *Lab) Attack(ctx context.Context, cfg AttackConfig, p AttackPattern) (AttackResult, error) {
	return security.RunContext(ctx, cfg, p)
}

// ExperimentsOption narrows or observes a Lab.Experiments sweep.
type ExperimentsOption func(*experiments.RunOptions)

// ExperimentsOnly restricts the sweep to the given experiment IDs
// (unknown IDs fail with ErrBadSpec naming the known set).
func ExperimentsOnly(ids ...string) ExperimentsOption {
	return func(o *experiments.RunOptions) { o.Only = append(o.Only, ids...) }
}

// ExperimentsAnalytical restricts the sweep to the simulation-free
// experiments.
func ExperimentsAnalytical() ExperimentsOption {
	return func(o *experiments.RunOptions) { o.Analytical = true }
}

// ExperimentsOnTable streams each table to fn as soon as it is
// assembled (paper order), so long sweeps can render incrementally.
// Assembly starts once every simulation the selection needs has run,
// so a cold sweep's first table arrives after its last simulation.
func ExperimentsOnTable(fn func(*ExperimentTable)) ExperimentsOption {
	return func(o *experiments.RunOptions) { o.OnTable = fn }
}

// Experiments regenerates the paper's tables and figures at the given
// scale. Unknown workloads in a custom scale and unknown experiment IDs
// return typed errors (ErrUnknownWorkload, ErrBadSpec) before or during
// the sweep instead of panicking mid-flight; cancellation drains the
// worker pool within one spec boundary and returns an error matching
// ErrCancelled — with a store attached, every simulation completed
// before the cancel persists, so the rerun resumes warm.
func (l *Lab) Experiments(ctx context.Context, scale ExperimentScale, opts ...ExperimentsOption) ([]*ExperimentTable, error) {
	var ro experiments.RunOptions
	for _, o := range opts {
		o(&ro)
	}
	return experiments.RunTables(ctx, l.newRunner(scale), ro)
}

// newRunner materializes an experiment runner carrying the Lab's
// resources. Progress is routed through l.emit, so one Lab-wide mutex
// serializes callbacks across every concurrent entry point (two
// overlapping Experiments calls, an Experiments beside a Run), keeping
// WithProgress's no-locking promise; the runner's clock default rides
// into every sweep simulation.
func (l *Lab) newRunner(scale ExperimentScale) *experiments.Runner {
	r := experiments.NewRunner(scale)
	r.Parallelism = l.parallelism
	r.Store = l.store
	r.Clock = l.clock
	r.MaxRelError = l.maxRelError
	if l.progress != nil {
		r.Progress = l.emit
	}
	return r
}

// ---- Adversarial attack synthesis (DESIGN.md §13) ----

// SynthConfig configures an adversarial synthesis search; see
// Lab.Synthesize.
type SynthConfig = synth.Config

// SynthReport is a completed search's outcome: the champion genome, the
// exact evaluation spec its margins were measured under, and the paper
// baseline it is compared against.
type SynthReport = synth.Report

// SynthGenStats is one generation's progress sample (best/mean fitness,
// current champion).
type SynthGenStats = synth.GenStats

// SynthEvaluator is the synthesis fitness seam: anything that evaluates
// attack specs in batch. A Lab-backed experiment runner satisfies it
// locally; a labd client satisfies it against a remote daemon.
type SynthEvaluator = synth.Evaluator

// AttackZooEntry is one archived champion's manifest in the attack zoo
// (testdata/attackzoo by default): the genome, the target it was bred
// against, and the margins recorded at archive time.
type AttackZooEntry = attack.ZooEntry

// Synthesize breeds an adversarial attack trace against one registered
// tracker: a deterministic evolutionary search over compact attack
// genomes, scored by the security harness. One (tracker, seed, budget)
// triple names exactly one champion. When cfg.Evaluator is nil the Lab
// supplies its own evaluator carrying the Lab's store and parallelism,
// so identical genomes — within a search, across searches, across
// processes sharing a store — evaluate once, and a re-run search
// resumes warm. Invalid configs return errors matching ErrBadSpec;
// cancellation stops the search at the next evaluation boundary with
// every completed evaluation persisted.
func (l *Lab) Synthesize(ctx context.Context, cfg SynthConfig) (SynthReport, error) {
	if cfg.Evaluator == nil {
		cfg.Evaluator = l.newRunner(experiments.QuickScale())
	}
	return synth.Synthesize(ctx, cfg)
}

// ArchiveAttack persists a completed search's champion into the attack
// zoo at dir (DefaultAttackZooDir() for the repository's regression
// zoo): the rendered replayable trace plus the manifest that
// reconstructs the exact evaluation its margins were measured under.
// Archiving the same champion twice converges on the same entry.
func (l *Lab) ArchiveAttack(ctx context.Context, dir string, rep SynthReport) (AttackZooEntry, error) {
	return synth.Archive(ctx, dir, rep)
}

// DefaultAttackZooDir locates the archive directory: $IMPRESS_ATTACKZOO
// when set, else the repository's testdata/attackzoo.
func DefaultAttackZooDir() string { return attack.DefaultZooDir() }

// AttackZooEntries lists every archived attack in dir, sorted by name.
// A missing directory is an empty zoo, not an error.
func AttackZooEntries(dir string) ([]AttackZooEntry, error) { return attack.ZooEntries(dir) }

// Record drains perCore requests per core from the workload's
// generators (seeded as a live simulation would seed them) into a
// replayable trace whose simulation is bit-identical to the live run
// (see WorkloadTrace). Invalid counts return ErrBadSpec; cancellation
// is honored every few thousand generated requests.
func (l *Lab) Record(ctx context.Context, w Workload, cores, perCore int, seed uint64) (*WorkloadTrace, error) {
	return trace.RecordContext(ctx, w, cores, perCore, seed)
}

// RecordFile is Record straight to a version-2 trace file at path,
// streaming frames to disk as they fill: memory stays bounded by the
// per-core frame buffers no matter how large the recording, so it is
// the way to produce traces bigger than RAM. On any failure — invalid
// counts (ErrBadSpec), cancellation, an I/O error — the partial file is
// removed.
func (l *Lab) RecordFile(ctx context.Context, w Workload, cores, perCore int, seed uint64, path string) error {
	return trace.RecordFile(ctx, w, cores, perCore, seed, path)
}

// Replay runs the recorded trace at path through the full simulator:
// cfg supplies the system and defense configuration while the trace
// supplies the request streams, core count and seed. Replays share
// cache entries with the live runs they were recorded from (the
// replay-equivalence contract makes them interchangeable).
func (l *Lab) Replay(ctx context.Context, path string, cfg SimConfig) (SimResult, error) {
	cfg.TraceFile = path
	return l.Run(ctx, cfg)
}
