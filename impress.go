// Package impress is the public API of the ImPress reproduction: implicit
// Row-Press mitigation for DRAM (Qureshi, Saxena, Jaleel — MICRO 2024).
//
// Every run goes through the Lab: a handle built with functional options
// that owns the resources runs share and exposes every run kind as a
// context-first, error-returning, progress-streaming method:
//
//	lab, err := impress.NewLab(
//	    impress.WithStore(dir),        // persistent result cache
//	    impress.WithParallelism(4),    // sweep worker pool
//	    impress.WithProgress(onEvent), // run-lifecycle stream
//	)
//	res, err := lab.Run(ctx, cfg)            // one simulation
//	tables, err := lab.Experiments(ctx, scale) // every figure
//	out, err := lab.Attack(ctx, acfg, pattern) // security harness
//
// Cancelling ctx stops a simulation within one macro cycle, a harness
// run within a few hundred accesses and a sweep within one spec
// boundary; with a store attached, completed work persists, so a
// cancelled sweep rerun resumes warm. Invalid input returns errors
// matching ErrBadSpec / ErrUnknownWorkload instead of panicking; see
// DESIGN.md §9 for the run-lifecycle contract. The only other
// run-performing function, MonteCarlo, takes a context first too.
//
// The package re-exports the library's main entry points so downstream
// users need not reach into internal packages:
//
//   - the Unified Charge-Loss Model (Model, NewModel, EACT arithmetic);
//   - the Row-Press defense designs (Design: NoRP, ExPress, ImpressN,
//     ImpressP) and their per-bank event policies;
//   - the Rowhammer trackers (Graphene, PARA, Mithril, MINT, PRAC and
//     the Hydra/ABACuS zoo extensions);
//   - the single-bank security harness (AttackConfig, Lab.Attack,
//     MonteCarlo) and the adversarial patterns;
//   - the full-system performance simulator (SimConfig, Lab.Run) with
//     the paper's 20 synthetic workloads, arbitrary per-core co-run
//     mixes including attack-pattern aggressor cores (MixWorkloads,
//     WorkloadByName specs), and trace record/replay (Lab.Record,
//     Lab.Replay, WorkloadTrace) with a bit-identical replay guarantee;
//   - the experiment harness that regenerates every table and figure
//     (Lab.Experiments, QuickScale, FullScale), backed by a concurrent
//     memoizing run scheduler (ExperimentRunner);
//   - a persistent, content-addressed result store (ResultStore,
//     OpenResultStore) that caches simulation results on disk keyed by
//     the fully-resolved run configuration, so repeated sweeps — and
//     sweeps sharded across machines via ExperimentRunner.ShardSpecs —
//     pay for each distinct simulation exactly once.
//
// Quick start:
//
//	model := impress.NewModel(impress.AlphaLongDuration)
//	damage := model.AccessTCL(impress.DDR5().TREFI) // one long RP access
//
//	lab, err := impress.NewLab()
//	if err != nil { ... }
//	cfg := impress.AttackConfig{
//	    Design:    impress.NewDesign(impress.ImpressP),
//	    DesignTRH: 4000,
//	    AlphaTrue: 1,
//	    Tracker:   func(trh float64) impress.Tracker { return impress.NewGraphene(trh) },
//	}
//	tm := impress.DDR5()
//	res, err := lab.Attack(ctx, cfg, &impress.RowPressPattern{Row: 1, TON: tm.TREFI, Timings: tm})
//	if err != nil { ... }
//	fmt.Println(res.MaxDamage) // bounded near TRH/3: contained
//
// See the runnable programs under examples/ for complete scenarios and
// DESIGN.md / EXPERIMENTS.md for the reproduction methodology.
package impress

import (
	"context"
	"io"

	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/experiments"
	"impress/internal/labd"
	"impress/internal/resultstore"
	"impress/internal/security"
	"impress/internal/sim"
	"impress/internal/stats"
	"impress/internal/trace"
	"impress/internal/trackers"
)

// ---- Charge-loss model (paper Section IV) ----

// Model is the Conservative Linear Model of Equation 3.
type Model = clm.Model

// EACT is a fixed-point Equivalent Activation Count (7 fractional bits).
type EACT = clm.EACT

// EACTCalculator converts row-open times into EACT values (Fig. 11).
type EACTCalculator = clm.Calculator

// Charge-leakage slopes from the paper.
const (
	AlphaShortDuration     = clm.AlphaShortDuration     // 0.35
	AlphaLongDuration      = clm.AlphaLongDuration      // 0.48
	AlphaDeviceIndependent = clm.AlphaDeviceIndependent // 1.0
)

// One is the fixed-point representation of a single activation.
const One = clm.One

// FracBits is ImPress-P's default fractional EACT precision (7 bits).
const FracBits = clm.FracBits

// ChargeAccess is one activation in a charge-loss pattern: its row-open
// time and the idle gap that follows. Model.PatternTCL sums a pattern's
// damage in activation-equivalents.
type ChargeAccess = clm.Access

// NewModel returns a CLM with the given alpha over DDR5 timings.
func NewModel(alpha float64) Model { return clm.New(alpha) }

// NewEACTCalculator returns a full-precision EACT calculator.
func NewEACTCalculator(t Timings) EACTCalculator { return clm.NewCalculator(t) }

// FracBitsEffectiveThreshold is the Fig. 12 precision/threshold trade-off.
func FracBitsEffectiveThreshold(bits int) float64 {
	return clm.FracBitsEffectiveThreshold(bits)
}

// ---- DRAM substrate ----

// Tick is the 125 ps simulation time unit.
type Tick = dram.Tick

// Timings is the DDR5 timing set (paper Table I).
type Timings = dram.Timings

// DDR5 returns the paper's Table I timings.
func DDR5() Timings { return dram.DDR5() }

// Ns converts nanoseconds to ticks.
func Ns(ns int64) Tick { return dram.Ns(ns) }

// ---- Defense designs (the paper's contribution) ----

// Design is a Row-Press defense configuration.
type Design = core.Design

// DesignKind selects among the paper's designs.
type DesignKind = core.Kind

// The four designs analyzed by the paper.
const (
	NoRP     = core.NoRP
	ExPress  = core.ExPress
	ImpressN = core.ImpressN
	ImpressP = core.ImpressP
)

// NewDesign returns a design with the paper's default parameters.
func NewDesign(kind DesignKind) Design { return core.NewDesign(kind) }

// BankPolicy is the per-bank defense state machine.
type BankPolicy = core.BankPolicy

// NewBankPolicy builds the per-bank policy for a design.
func NewBankPolicy(d Design) BankPolicy { return core.NewBankPolicy(d) }

// ---- Trackers (paper Section II-C) ----

// Tracker is the common aggressor-tracking interface.
type Tracker = trackers.Tracker

// Rand is the deterministic PRNG used by probabilistic trackers.
type Rand = stats.Rand

// NewRand returns a seeded deterministic generator.
func NewRand(seed uint64) *Rand { return stats.NewRand(seed) }

// NewGraphene returns a Misra-Gries tracker tolerating trh.
func NewGraphene(trh float64) Tracker { return trackers.NewGraphene(trh) }

// NewPARA returns a probabilistic tracker tolerating trh.
func NewPARA(trh float64, rng *Rand) Tracker { return trackers.NewPARA(trh, rng) }

// NewMithril returns an in-DRAM counter tracker tolerating trh at the
// given RFM threshold.
func NewMithril(trh float64, rfmth int) Tracker { return trackers.NewMithril(trh, rfmth) }

// NewMINT returns the single-entry in-DRAM tracker at the given RFM
// threshold (tolerating 20x RFMTH).
func NewMINT(rfmth int, rng *Rand) Tracker { return trackers.NewMINT(rfmth, rng) }

// MINTToleratedTRH is MINT's figure of merit.
func MINTToleratedTRH(rfmth int) float64 { return trackers.MINTToleratedTRH(rfmth) }

// NewPRAC returns a Per-Row Activation Counting tracker tolerating trh
// (the JEDEC DDR5 mechanism of Section VI-F; compose with ImPress-P for
// Row-Press protection).
func NewPRAC(trh float64) Tracker { return trackers.NewPRAC(trh) }

// NewHydra returns the Hydra hybrid tracker tolerating trh: SRAM group
// counters that spill to exact per-row counts on saturation.
func NewHydra(trh float64) Tracker { return trackers.NewHydra(trh) }

// NewABACuS returns the ABACuS shared-counter tracker tolerating trh:
// one counter row shared across banks, evicted without inheritance.
func NewABACuS(trh float64) Tracker { return trackers.NewABACuS(trh) }

// ---- Security harness (paper Sections V-VI, Appendix B) ----

// AttackConfig describes one security experiment.
type AttackConfig = security.Config

// AttackResult is the harness output.
type AttackResult = security.Result

// AttackTrackerFactory builds per-run trackers for the security harness.
type AttackTrackerFactory = security.TrackerFactory

// AttackPattern generates an adversarial access sequence.
type AttackPattern = attack.Pattern

// MonteCarloResult summarizes a reliability-trial ensemble.
type MonteCarloResult = security.MonteCarloResult

// SeededTrackerFactory builds trackers from explicit seeds for
// Monte-Carlo trials.
type SeededTrackerFactory = security.SeededTrackerFactory

// MonteCarlo estimates empirical failure fractions over independent
// attack trials (the paper's 0.1 FIT reliability methodology). A
// non-positive trial count or an invalid config returns an error
// matching ErrBadSpec; cancellation, honored between and within trials,
// returns an error matching ErrCancelled and ctx.Err().
func MonteCarlo(ctx context.Context, cfg AttackConfig, newPattern func() AttackPattern,
	newTracker SeededTrackerFactory, trials int, baseSeed uint64) (MonteCarloResult, error) {
	return security.MonteCarlo(ctx, cfg, newPattern, newTracker, trials, baseSeed)
}

// TrackerStorage is one tracker's SRAM budget (paper Section VI-C).
type TrackerStorage = security.TrackerStorage

// DesignStorage is a defense design's tracker-storage requirement
// relative to No-RP.
type DesignStorage = security.DesignStorage

// StorageComparison returns the Section VI-C storage table for a
// tracker ("graphene" or "mithril") across the four designs.
func StorageComparison(tracker string, designTRH float64, rfmth int, alpha float64) []DesignStorage {
	return security.StorageComparison(tracker, designTRH, rfmth, alpha)
}

// MINTStorageBytes is MINT's per-bank storage with fracBits of ImPress-P
// EACT precision (0 = plain Rowhammer MINT).
func MINTStorageBytes(rfmth, fracBits int) int {
	return security.MINTStorageBytes(rfmth, fracBits)
}

// The paper's attack patterns.
type (
	// RowhammerPattern is the classic fast-activation attack.
	RowhammerPattern = attack.Rowhammer
	// RowPressPattern holds the row open for a fixed time per round.
	RowPressPattern = attack.RowPress
	// DecoyPattern is the Fig. 10 worst case against ImPress-N.
	DecoyPattern = attack.Decoy
	// CombinedPattern is the parameterized Fig. 17 RH+RP loop.
	CombinedPattern = attack.CombinedK
)

// ---- Performance simulator (paper Section III) ----

// SimConfig describes one full-system simulation.
type SimConfig = sim.Config

// SimResult is the simulation output.
type SimResult = sim.Result

// TrackerKind names a tracker for the simulator.
type TrackerKind = sim.TrackerKind

// Simulator tracker choices.
const (
	TrackerNone     = sim.TrackerNone
	TrackerGraphene = sim.TrackerGraphene
	TrackerPARA     = sim.TrackerPARA
	TrackerMithril  = sim.TrackerMithril
	TrackerMINT     = sim.TrackerMINT
	TrackerHydra    = sim.TrackerHydra
	TrackerABACuS   = sim.TrackerABACuS
)

// SimClockMode selects the simulator's stepping strategy.
type SimClockMode = sim.ClockMode

// Simulator clocking choices: the event-driven clock (default) skips
// provably idle cycles and is bit-identical to cycle-accurate stepping,
// the reference it is tested against; sampled is the explicitly
// approximate interval-sampling mode, reporting estimates with 95%
// confidence intervals (SimResult.Estimates).
const (
	SimClockEventDriven   = sim.ClockEventDriven
	SimClockCycleAccurate = sim.ClockCycleAccurate
	SimClockSampled       = sim.ClockSampled
)

// Workload is a named synthetic workload.
type Workload = trace.Workload

// Workloads returns the paper's 20-workload evaluation list.
func Workloads() []Workload { return trace.Workloads() }

// WorkloadByName resolves a workload spec: one of the 20 built-in names,
// an "attack:<pattern>" adversarial workload, or an arbitrary per-core
// co-run mix "mix:<entry>,<entry>,..." (e.g. "mix:mcf,gcc,attack:hammer").
func WorkloadByName(name string) (Workload, error) { return trace.WorkloadByName(name) }

// MixWorkloads builds a per-core co-run workload: core i runs
// sources[i%len(sources)], each with its own disjoint address range.
func MixWorkloads(name string, sources []Workload) (Workload, error) {
	return trace.Mix(name, sources)
}

// ---- Trace record/replay (DESIGN.md §7) ----

// WorkloadTrace is a recorded multi-core request stream in the versioned
// binary trace format. Its Workload method returns a replayable workload
// whose simulation is bit-identical to the live run it was recorded
// from; Encode/WriteFile and DecodeTrace/ReadTraceFile move traces to
// and from disk.
type WorkloadTrace = trace.Trace

// DecodeTrace reads a binary trace from a stream; it returns an error —
// never panics — on corrupt input.
func DecodeTrace(r io.Reader) (*WorkloadTrace, error) { return trace.Decode(r) }

// ReadTraceFile loads a recorded trace file.
func ReadTraceFile(path string) (*WorkloadTrace, error) { return trace.ReadFile(path) }

// TraceHeader is a trace file's self-describing header: name, class,
// seed, line size and core count.
type TraceHeader = trace.Header

// TraceReader streams a recorded trace from disk: opening one reads
// only the header and frame index, and the Workload it returns replays
// with a fixed per-core frame buffer instead of materializing the
// streams — the way to replay traces larger than RAM. See
// Lab.RecordFile for the recording side.
type TraceReader = trace.Reader

// OpenTraceReader opens the trace file at path for streaming replay.
// The caller must keep the reader open while any simulation replaying
// it runs, and close it afterwards.
func OpenTraceReader(path string) (*TraceReader, error) { return trace.OpenReader(path) }

// DefaultSimConfig returns the Table II system for a workload/defense.
func DefaultSimConfig(w Workload, d Design, tracker TrackerKind) SimConfig {
	return sim.DefaultConfig(w, d, tracker)
}

// ---- Persistent result store (DESIGN.md §8) ----

// ResultStore is an on-disk, content-addressed cache of simulation
// results, safe for concurrent use across goroutines, processes and
// machines sharing one directory. Attach one to an ExperimentRunner
// (its Store field) to make sweeps restartable and shardable, or drive
// it directly with ResultSpecFor + Get/Put.
type ResultStore = resultstore.Store

// ResultSpec is the canonical, hashable description of one
// fully-resolved simulation run — the store's key preimage. Two configs
// with equal specs are contractually bound to produce bit-identical
// results (clock mode, for instance, is excluded).
type ResultSpec = resultstore.Spec

// OpenResultStore opens a result-store directory, creating it if
// needed.
func OpenResultStore(dir string) (*ResultStore, error) { return resultstore.Open(dir) }

// ResultSpecFor derives the canonical spec (and thereby the store key)
// for a simulation config. It fails only when the config replays a
// trace file that cannot be read (the file's content is part of the
// key).
func ResultSpecFor(cfg SimConfig) (ResultSpec, error) { return resultstore.SpecFor(cfg) }

// ---- Experiment harness ----

// ExperimentTable is one regenerated table/figure.
type ExperimentTable = experiments.Table

// ExperimentScale controls simulation length.
type ExperimentScale = experiments.Scale

// ExperimentRunner executes and memoizes simulation runs. It is safe for
// concurrent use; set Parallelism to bound the PrefetchContext worker pool
// (0 = GOMAXPROCS). Parallel execution is byte-identical to serial. Set
// Store to persist results across processes, and use ShardSpecs to split
// a sweep across machines merging through one store.
type ExperimentRunner = experiments.Runner

// ExperimentRunSpec fully describes one simulation run for memoization
// and prefetching.
type ExperimentRunSpec = experiments.RunSpec

// ExperimentTRH returns an explicit DesignTRH override for a run spec
// (the zero value of the field means "keep the sim default").
func ExperimentTRH(v float64) experiments.Opt[float64] { return experiments.TRH(v) }

// ExperimentRFM returns an explicit RFMTH override for a run spec.
func ExperimentRFM(v int) experiments.Opt[int] { return experiments.RFM(v) }

// NewExperimentRunner builds a concurrent-safe memoizing runner at the
// given scale.
func NewExperimentRunner(scale ExperimentScale) *ExperimentRunner {
	return experiments.NewRunner(scale)
}

// QuickScale is the CI-sized experiment scale.
func QuickScale() ExperimentScale { return experiments.QuickScale() }

// StandardScale is the all-workload scale EXPERIMENTS.md reports.
func StandardScale() ExperimentScale { return experiments.StandardScale() }

// FullScale is the complete-reproduction scale.
func FullScale() ExperimentScale { return experiments.FullScale() }

// ---- Sweep service (DESIGN.md §11) ----

// SweepClient talks to an impress-labd daemon: the experiment sweeps a
// local ExperimentRunner performs, submitted to a long-running service
// instead. Errors reconstruct the same taxonomy local runs return, so
// errors.Is(err, ErrBadSpec) works identically for a remote sweep.
type SweepClient = labd.Client

// SweepRequest selects a sweep to submit: the impress-experiments
// CLI's scale/ID/shard selections as a struct. The zero value is the
// full quick-scale sweep.
type SweepRequest = labd.SweepRequest

// SweepJob is the snapshot of one submitted sweep: lifecycle state,
// shard layout, and the cache-hit/simulated counters that prove a warm
// resubmit simulated nothing.
type SweepJob = labd.Job

// SweepJobState enumerates a sweep job's lifecycle states.
type SweepJobState = labd.JobState

// The sweep job lifecycle: queued -> running -> one of the three
// terminal states.
const (
	SweepStateQueued    = labd.StateQueued
	SweepStateRunning   = labd.StateRunning
	SweepStateDone      = labd.StateDone
	SweepStateFailed    = labd.StateFailed
	SweepStateCancelled = labd.StateCancelled
)

// SweepEvent is one entry in a job's progress stream: the Lab's
// Progress events on the wire, plus state transitions and the lagged
// marker a slow consumer receives instead of back-pressuring the sweep.
type SweepEvent = labd.Event

// SweepTables is the rendered-tables response for a job; each table's
// Text is the byte-exact Render output of the equivalent local run.
type SweepTables = labd.TablesResponse

// NewSweepClient returns a client for the impress-labd daemon at base
// (e.g. "http://127.0.0.1:8057"). It opens no connection until a
// method is called; cancel the per-call context to abort requests and
// long-lived event streams.
func NewSweepClient(base string) *SweepClient { return labd.NewClient(base) }
