// Package sim wires the performance-simulation substrates together: 8
// trace-driven cores (internal/cpu), a shared SRRIP LLC with MSHR merging
// (internal/cache), and the DDR5 memory controller + DRAM model
// (internal/memctrl, internal/dram) with a Row-Press defense and Rowhammer
// tracker installed. It reproduces the paper's Section III methodology:
// 8-core rate mode, warmup then measured run, performance reported as
// normalized weighted speedup.
package sim

import (
	"context"
	"fmt"
	"math"
	"strings"

	"impress/internal/cache"
	"impress/internal/core"
	"impress/internal/cpu"
	"impress/internal/dram"
	"impress/internal/errs"
	"impress/internal/memctrl"
	"impress/internal/stats"
	"impress/internal/trace"
	"impress/internal/trackers"
)

// TrackerKind names a tracker configuration.
type TrackerKind string

// The tracker configurations of the paper's evaluation plus the
// extended zoo. Every kind except TrackerNone must name an entry in the
// trackers registry (trackers.ByName) — Validate and trackerFactory are
// registry-driven, so a tracker registered there is automatically
// simulatable (the zoo exhaustiveness test asserts it).
const (
	TrackerNone     TrackerKind = "none"
	TrackerGraphene TrackerKind = "graphene"
	TrackerPARA     TrackerKind = "para"
	TrackerMithril  TrackerKind = "mithril"
	TrackerMINT     TrackerKind = "mint"
	TrackerHydra    TrackerKind = "hydra"
	TrackerABACuS   TrackerKind = "abacus"
)

// ClockMode selects the stepping strategy of the top-level run loop.
type ClockMode int

const (
	// ClockEventDriven (the default) advances time directly to the next
	// event horizon when every component is provably idle: each layer
	// exposes a NextEvent(now) bound (dram bank/channel timing,
	// memctrl.Controller.NextEvent, cpu.Core.SkipHint, the simulator's
	// hit queue), and whole macro cycles whose every step would be a
	// no-op are applied wholesale. Results are bit-identical to
	// ClockCycleAccurate — the skip fires only when provably nothing can
	// change besides the clocks themselves.
	ClockEventDriven ClockMode = iota
	// ClockCycleAccurate ticks every CPU and DRAM cycle (the reference
	// semantics).
	ClockCycleAccurate
	// ClockLockstep is the debug mode: it runs an event-driven simulator
	// and a cycle-accurate shadow in tandem and panics on the first
	// macro cycle where their states diverge. ~2x the cost of
	// ClockCycleAccurate; use it to localize clocking bugs.
	ClockLockstep
	// ClockSampled is the explicitly approximate mode: SMARTS-style
	// interval sampling alternates short detailed windows (event-driven,
	// exact) with functionally fast-forwarded gaps in which only the LLC
	// is warmed and no time passes. Results are estimates with 95%
	// confidence intervals (Result.Estimates) and are NOT bit-identical
	// to the exact modes; the statistical validation tier
	// (TestSampledErrorBounds) quantifies the error. See DESIGN.md §12.
	ClockSampled
)

// Config describes one simulation run.
type Config struct {
	Workload trace.Workload
	// TraceFile, when non-empty, replaces Workload with the recorded
	// trace stored at this path (internal/trace binary format): the run
	// decodes the file, replays its per-core request streams, and sets
	// Cores to the trace's recorded core count and Seed to the trace's
	// recorded seed — the Seed override keeps randomized trackers
	// (PARA/MINT) on the same RNG chain as the live run, which the
	// replay-equivalence contract requires. An unreadable or corrupt
	// file is a typed error from RunContext; callers wanting a
	// different tracker seed over the same recorded stream should load
	// the trace themselves (trace.ReadFile + Trace.Workload) and set
	// Workload directly.
	TraceFile string
	Cores     int
	CPU       cpu.Config
	LLC       cache.Config
	// LLCLatency is the core-to-LLC round trip for hits, in CPU cycles.
	LLCLatency int64

	Design    core.Design
	Tracker   TrackerKind
	DesignTRH float64
	RFMTH     int

	WarmupInstructions int64
	RunInstructions    int64
	Seed               uint64

	// MaxCycles bounds the run as a safety net (0 = 100x run budget).
	MaxCycles int64

	// Clock selects the stepping strategy; the zero value is
	// ClockEventDriven, which is bit-identical to ClockCycleAccurate and
	// skips idle cycles.
	Clock ClockMode

	// MaxRelError, under ClockSampled, ends the measured run early once
	// every tracked metric's 95% confidence half-width falls below this
	// fraction of its mean (statistical early stop). Zero runs all
	// sampling intervals. Ignored by the exact clock modes.
	MaxRelError float64

	// RestoreCheckpoint, when non-nil, is an encoded warmup checkpoint
	// (EncodeCheckpoint) the run restores instead of simulating warmup.
	// The checkpoint must have been captured by a run with the same spec
	// up to the warmup boundary; restored runs are bit-identical to
	// straight-through runs in every exact clock mode. A checkpoint that
	// fails to decode or does not match the config is a typed error
	// wrapping errs.ErrBadSpec.
	RestoreCheckpoint []byte

	// OnCheckpoint, when non-nil, receives the encoded post-warmup
	// checkpoint of a straight-through run (it is not called when
	// RestoreCheckpoint is set or warmup is zero). Capture failures —
	// a tracker without snapshot support — skip the callback rather
	// than failing the run.
	OnCheckpoint func([]byte)
}

// Validate reports whether the config is a well-formed simulation
// request, returning a typed error (wrapping errs.ErrBadSpec) otherwise.
// It covers everything RunContext would reject — a missing workload or
// core count, an unknown tracker or clock mode, negative instruction
// budgets, an invalid defense design — except the trace file itself,
// whose decoding happens (and can fail) only when the run starts.
// Internal invariants are not its concern; those still panic.
func (cfg Config) Validate() error {
	if cfg.TraceFile == "" {
		if cfg.Workload.NewGenerator == nil {
			return fmt.Errorf("sim: %w: no workload (set Workload or TraceFile)", errs.ErrBadSpec)
		}
		if cfg.Cores <= 0 {
			return fmt.Errorf("sim: %w: need at least one core (got %d)", errs.ErrBadSpec, cfg.Cores)
		}
	}
	if cfg.Tracker != TrackerNone {
		if _, ok := trackers.ByName(string(cfg.Tracker)); !ok {
			return fmt.Errorf("sim: %w: unknown tracker %q (have none, %s)",
				errs.ErrBadSpec, cfg.Tracker, strings.Join(trackers.Names(), ", "))
		}
	}
	switch cfg.Clock {
	case ClockEventDriven, ClockCycleAccurate, ClockLockstep, ClockSampled:
	default:
		return fmt.Errorf("sim: %w: unknown clock mode %d", errs.ErrBadSpec, cfg.Clock)
	}
	if cfg.WarmupInstructions < 0 || cfg.RunInstructions < 0 {
		return fmt.Errorf("sim: %w: negative instruction budget (warmup %d, run %d)",
			errs.ErrBadSpec, cfg.WarmupInstructions, cfg.RunInstructions)
	}
	if cfg.MaxRelError < 0 {
		return fmt.Errorf("sim: %w: negative max relative error %v", errs.ErrBadSpec, cfg.MaxRelError)
	}
	if cfg.Clock == ClockSampled && cfg.RunInstructions < sampledIntervals*sampledMinPeriod {
		return fmt.Errorf("sim: %w: sampled clock needs at least %d run instructions (got %d)",
			errs.ErrBadSpec, sampledIntervals*sampledMinPeriod, cfg.RunInstructions)
	}
	if cfg.Clock == ClockSampled && strings.Contains(cfg.Workload.Name, "attack:") {
		// The fast-forwarded gaps generate no DRAM activations, so the
		// tracker and defense state an adversarial pattern exists to drive
		// sees a fifth of the hammering — mitigative ACT counts and the
		// attack core's slowdown come out wildly wrong, far outside the
		// documented sampling bounds. Adversarial runs need an exact clock.
		return fmt.Errorf("sim: %w: sampled clock cannot simulate adversarial workloads (%q): use an exact clock mode",
			errs.ErrBadSpec, cfg.Workload.Name)
	}
	if err := cfg.Design.Validate(); err != nil {
		return fmt.Errorf("sim: %w: %w", errs.ErrBadSpec, err)
	}
	return nil
}

// DefaultConfig returns the Table II system around the given workload and
// defense, with the reproduction's scaled-down default instruction counts
// (the paper uses 50 M warmup + 200 M run; relative results are stable at
// this scale because the generators are stationary — see DESIGN.md §4).
func DefaultConfig(w trace.Workload, design core.Design, tracker TrackerKind) Config {
	return Config{
		Workload:           w,
		Cores:              8,
		CPU:                cpu.DefaultConfig(),
		LLC:                cache.DefaultConfig(),
		LLCLatency:         44,
		Design:             design,
		Tracker:            tracker,
		DesignTRH:          4000,
		RFMTH:              80,
		WarmupInstructions: 200_000,
		RunInstructions:    1_000_000,
		Seed:               1,
	}
}

// Result summarizes one run.
type Result struct {
	Workload string
	IPC      []float64
	// WeightedIPCSum is the sum of per-core IPCs (rate mode with identical
	// copies, so normalized weighted speedup against a baseline run is
	// the ratio of these sums).
	WeightedIPCSum float64
	Mem            memctrl.Stats
	LLCHitRate     float64
	Cycles         int64

	// Estimates carries sampled-mode confidence intervals; nil in the
	// exact clock modes, so exact Result JSON (and the result-store
	// records and golden tables built from it) is byte-identical to
	// pre-sampling builds.
	Estimates *SampledEstimates `json:",omitempty"`
}

// Perf returns the run's aggregate performance metric.
func (r Result) Perf() float64 { return r.WeightedIPCSum }

// NormalizeTo returns this run's performance normalized to a baseline run
// of the same workload.
func (r Result) NormalizeTo(baseline Result) float64 {
	return stats.NormalizedWeightedSpeedup(r.IPC, baseline.IPC)
}

// RunContext executes the simulation under a context. Invalid caller
// input — a config failing Validate, an unreadable or corrupt trace
// file — returns a typed error wrapping errs.ErrBadSpec; internal
// invariant violations (lockstep divergence, the MaxCycles deadlock
// bound, a replay recording exhausted mid-run) still panic.
//
// Cancellation is honored at macro-cycle boundaries: the done channel is
// polled once per 6-tick macro cycle, before any component steps, so the
// run returns within one macro cycle of ctx ending — with an error
// matching both errs.ErrCancelled and ctx.Err() — while the hot loop
// pays only a nil-check when the context cannot be cancelled (the
// event-driven clock's idle skips fast-forward past the poll exactly as
// they fast-forward past the cycles themselves).
//
// RunContext is safe for concurrent use: every call builds a private
// simulator — its own RNG chain seeded from cfg.Seed, trace generators,
// cores, LLC and memory controller — and the package keeps no mutable
// global state. Results depend only on cfg, never on what other
// goroutines are doing, which is what lets the experiment runner
// (internal/experiments) fan independent runs out over a worker pool
// while remaining bit-for-bit deterministic. The Config value itself
// must not be mutated while a run uses it; Design, Workload and
// cpu/cache configs are plain values, so sharing one Config template
// across goroutines by copy is fine.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if cfg.TraceFile != "" {
		// The streaming reader loads only the header and frame index here;
		// the replay generators pull frames from the file as the run
		// consumes them, so replay memory does not scale with trace size.
		r, err := trace.OpenReader(cfg.TraceFile)
		if err != nil {
			return Result{}, fmt.Errorf("sim: %w: %w", errs.ErrBadSpec, err)
		}
		defer r.Close()
		w, err := r.Workload()
		if err != nil {
			return Result{}, fmt.Errorf("sim: %w: %w", errs.ErrBadSpec, err)
		}
		cfg.Workload = w
		cfg.Cores = r.Header().Cores
		cfg.Seed = r.Header().Seed
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s := newSimulator(cfg)
	s.done = ctx.Done()
	s.ctxErr = ctx.Err
	if cfg.Clock == ClockSampled {
		return s.runSampled()
	}
	return s.run()
}

// simulator holds the wired system.
type simulator struct {
	cfg Config
	mc  *memctrl.Controller
	llc *cache.Cache

	cores []*cpu.Core

	// mshrs merges outstanding line fetches.
	mshrs map[uint64]*mshr

	// hitQ is a FIFO of LLC-hit completions (fixed latency preserves
	// order).
	hitQ []hitEntry

	// pendingWB holds writebacks awaiting write-queue space (pre-mapped,
	// drained FIFO).
	pendingWB []*memctrl.Request

	now    dram.Tick
	tick   int64
	rotate int

	// memVersion implements cpu.MemorySystem.Version: it moves whenever
	// state that could flip a CanAccept verdict changes (queue pops,
	// line fills, MSHR allocation).
	memVersion uint64

	// mcBusy and mcHorizon cache the controller's event horizon: while
	// the controller reports inactive Ticks, DRAM cycles before
	// mcHorizon are provably no-ops and dramStep skips them. Any Push
	// sets mcBusy so the next DRAM cycle ticks for real.
	mcBusy    bool
	mcHorizon dram.Tick

	// shadow is the cycle-accurate twin driven in ClockLockstep mode.
	shadow *simulator

	// done and ctxErr carry the run's cancellation signal (RunContext).
	// done is nil for uncancellable contexts (context.Background()), so
	// the per-macro-cycle poll degenerates to one nil-check. The shadow simulator never carries them: it is
	// stepped by the primary, which polls for both.
	done   <-chan struct{}
	ctxErr func() error
}

type mshr struct {
	line  uint64
	dirty bool
	// uncached is set when the fetch was allocated by an LLC-bypassing
	// operation: the returning line is not filled into the LLC, and a
	// dirty one is written back to memory directly.
	uncached bool
	waiters  []*cpu.MemOp
}

type hitEntry struct {
	ready dram.Tick
	op    *cpu.MemOp
}

func newSimulator(cfg Config) *simulator {
	s := &simulator{
		cfg:   cfg,
		llc:   cache.New(cfg.LLC),
		mshrs: make(map[uint64]*mshr),
	}
	rng := stats.NewRand(cfg.Seed)
	factory := trackerFactory(cfg, rng)
	mcCfg := memctrl.DefaultConfig(cfg.Design, factory, cfg.RFMTH)
	mcCfg.OnReadComplete = s.readComplete
	s.mc = memctrl.New(mcCfg)
	coreCfg := cfg.CPU
	coreCfg.NoFastPath = cfg.Clock == ClockCycleAccurate
	for i := 0; i < cfg.Cores; i++ {
		gen := cfg.Workload.NewGenerator(i, cfg.Seed)
		s.cores = append(s.cores, cpu.New(i, coreCfg, gen, s))
	}
	s.mcBusy = true // force the first DRAM cycle to tick
	if cfg.Clock == ClockLockstep {
		shadowCfg := cfg
		shadowCfg.Clock = ClockCycleAccurate
		s.shadow = newSimulator(shadowCfg)
	}
	return s
}

// trackerFactory builds per-bank trackers tuned to the design's T*.
//
// The captured rng is owned by exactly one simulator: it is created in
// newSimulator per RunContext call and only ever advanced from that simulator's
// single goroutine (bank construction inside memctrl.New is sequential,
// and PARA/MINT draw from their own Split() streams afterwards). Nothing
// here may be shared across concurrent RunContext calls — stats.Rand is not
// goroutine-safe.
func trackerFactory(cfg Config, rng *stats.Rand) memctrl.TrackerFactory {
	if cfg.Tracker == TrackerNone {
		return nil
	}
	info, ok := trackers.ByName(string(cfg.Tracker))
	if !ok {
		panic(fmt.Sprintf("sim: unknown tracker %q", cfg.Tracker))
	}
	trh := cfg.Design.TrackerTRH(cfg.DesignTRH)
	return func(int) trackers.Tracker { return info.New(trh, cfg.RFMTH, rng) }
}

// Version implements cpu.MemorySystem: cores cache CanAccept-blocked
// stall verdicts and re-evaluate only when this moves.
func (s *simulator) Version() uint64 { return s.memVersion }

// CanAccept implements cpu.MemorySystem. Uncached operations may not
// rely on LLC residency (they bypass the cache), so they need an MSHR
// merge or read-queue space.
func (s *simulator) CanAccept(addr uint64, write, uncached bool) bool {
	line := addr / trace.LineSize
	if !uncached && s.llc.Contains(addr) {
		return true
	}
	if _, ok := s.mshrs[line]; ok {
		return true // merge
	}
	loc := s.mc.Map(lineAddr(line))
	return s.mc.CanPush(loc, false) // misses fetch the line (write-allocate)
}

// Access implements cpu.MemorySystem. Cores reach it through the
// interface, which the hotpath callee walk cannot follow — hence its
// own annotation.
//
//impress:hotpath
func (s *simulator) Access(op *cpu.MemOp) {
	if !op.Uncached && s.llc.Access(op.Addr, op.Write) {
		if op.Write {
			return // stores are posted; already Done
		}
		s.hitQ = append(s.hitQ, hitEntry{
			ready: s.now + dram.Tick(s.cfg.LLCLatency*dram.TicksPerCPUCycle),
			op:    op,
		})
		return
	}
	line := op.Addr / trace.LineSize
	if m, ok := s.mshrs[line]; ok {
		// Uncached operations may merge into an in-flight fetch of the
		// same line (cacheable or not); the allocator decides whether the
		// returning data fills the LLC.
		m.dirty = m.dirty || op.Write
		if !op.Write {
			m.waiters = append(m.waiters, op)
		}
		return
	}
	m := &mshr{line: line, dirty: op.Write, uncached: op.Uncached}
	if !op.Write {
		m.waiters = append(m.waiters, op)
	}
	s.mshrs[line] = m
	s.memVersion++ // a new MSHR can unblock merges
	addr := lineAddr(line)
	req := &memctrl.Request{Addr: addr, Loc: s.mc.Map(addr)}
	s.mc.Push(s.now, req)
	s.mcBusy = true
}

func lineAddr(line uint64) uint64 { return line * trace.LineSize }

// readComplete is the controller's read-completion callback: it resolves
// the finished request back to its MSHR by line address. A single
// method value installed once at construction replaces a per-miss
// closure, which would allocate on the hot path (DESIGN.md §10).
//
//impress:hotpath
func (s *simulator) readComplete(req *memctrl.Request, _ dram.Tick) {
	if m, ok := s.mshrs[req.Addr/trace.LineSize]; ok {
		s.fill(m)
	}
}

func (s *simulator) fill(m *mshr) {
	delete(s.mshrs, m.line)
	if m.uncached {
		// LLC bypass: no fill, no eviction. A dirty uncached line is
		// written straight back to memory (write-through after fetch).
		if m.dirty {
			s.pendingWB = append(s.pendingWB, &memctrl.Request{
				Addr: lineAddr(m.line), Write: true, Loc: s.mc.Map(lineAddr(m.line)),
			})
		}
	} else {
		victim, evicted := s.llc.Fill(lineAddr(m.line), m.dirty)
		if evicted && victim.Dirty {
			s.pendingWB = append(s.pendingWB, &memctrl.Request{
				Addr: victim.Addr, Write: true, Loc: s.mc.Map(victim.Addr),
			})
		}
	}
	s.memVersion++ // the fill (and freed MSHR) can unblock cores
	for _, op := range m.waiters {
		op.Complete()
	}
}

func (s *simulator) drainWritebacks() {
	n := 0
	for n < len(s.pendingWB) {
		req := s.pendingWB[n]
		if !s.mc.CanPush(req.Loc, true) {
			break // FIFO: head-of-line blocking keeps order and work bounded
		}
		s.mc.Push(s.now, req)
		s.mcBusy = true
		n++
	}
	if n > 0 {
		s.pendingWB = s.pendingWB[n:]
	}
}

func (s *simulator) cpuStep(t dram.Tick) {
	s.now = t
	// Complete LLC hits that are ready (FIFO order by construction).
	n := 0
	for n < len(s.hitQ) && s.hitQ[n].ready <= t {
		s.hitQ[n].op.Complete()
		n++
	}
	if n > 0 {
		s.hitQ = s.hitQ[n:]
	}
	// Rotate the stepping order so no core gets systematic first claim on
	// queue space (rate-mode fairness).
	start := s.rotate
	s.rotate++
	for i := range s.cores {
		s.cores[(start+i)%len(s.cores)].Step()
	}
}

func (s *simulator) dramStep(t dram.Tick) {
	s.now = t
	if len(s.pendingWB) > 0 {
		s.drainWritebacks()
	}
	if !s.eventClock() {
		// Reference mode: tick unconditionally and skip the horizon and
		// version bookkeeping — nothing reads either (cores run with
		// NoFastPath), and computing them would bill the cycle-accurate
		// baseline for event-clock machinery it does not use.
		s.mc.Tick(t)
		return
	}
	if !s.mcBusy && t < s.mcHorizon {
		return // provably a no-op DRAM cycle (Controller.NextEvent)
	}
	issuesBefore := s.mc.Issues()
	if s.mc.Tick(t) {
		s.mcBusy = true
	} else {
		s.mcBusy = false
		// Events strictly after t (this cycle just proved a no-op).
		s.mcHorizon = s.mc.NextEvent(t + 1)
	}
	if s.mc.Issues() != issuesBefore {
		s.memVersion++ // queue pops can unblock backpressured cores
	}
}

// eventClock reports whether idle skipping is enabled (everything except
// the cycle-accurate reference mode).
func (s *simulator) eventClock() bool { return s.cfg.Clock != ClockCycleAccurate }

// step advances one 6-tick macro cycle: 3 CPU cycles (4 GHz) and 2 DRAM
// cycles (2.66 GHz).
func (s *simulator) step() {
	base := dram.Tick(s.tick)
	s.cpuStep(base)
	s.dramStep(base)
	s.cpuStep(base + 2)
	s.dramStep(base + 3)
	s.cpuStep(base + 4)
	s.tick += 6
}

// advance performs one loop iteration: under the event-driven clock it
// first fast-forwards over as many whole macro cycles as are provably
// no-ops, then executes one macro cycle normally. retireTarget, when
// positive, is the caller's loop-exit retirement threshold: the skip
// stops before any core could reach it, so the caller observes the exact
// boundary cycle-accurate stepping would.
//
//impress:hotpath
func (s *simulator) advance(retireTarget int64) {
	var k int64
	if s.cfg.Clock != ClockCycleAccurate {
		if k = s.skippableMacroCycles(retireTarget); k > 0 {
			s.applySkip(k)
		}
	}
	s.step()
	if s.shadow != nil {
		for i := int64(0); i <= k; i++ {
			s.shadow.step()
		}
		s.assertLockstep(k)
	}
}

// skippableMacroCycles returns how many whole macro cycles can be
// fast-forwarded from the current macro boundary such that every skipped
// CPU step and DRAM tick is provably a no-op: every core is stalled or in
// a closed-form fetch/retire regime (cpu.SkipHint), no LLC-hit completion
// matures, no pending writeback can enter the controller, and the memory
// controller's NextEvent horizon is not reached. Zero means "step
// normally" and is always safe — the skip is an optimization gate, never
// a semantic one.
func (s *simulator) skippableMacroCycles(retireTarget int64) int64 {
	// Cheap rejections first: a busy controller must tick next cycle,
	// and a pushable writeback needs the next macro to run.
	if s.mcBusy {
		return 0
	}
	base := dram.Tick(s.tick)
	if len(s.pendingWB) > 0 && s.mc.CanPush(s.pendingWB[0].Loc, true) {
		return 0 // the next DRAM step drains a writeback
	}
	maxSteps := int64(math.MaxInt64) // bound in CPU steps
	width := int64(s.cfg.CPU.Width)
	for _, c := range s.cores {
		h := c.CurrentHint()
		if !h.Viable {
			return 0
		}
		if h.Steps < maxSteps {
			maxSteps = h.Steps
		}
		if retireTarget > 0 && h.RetirePerStep > 0 {
			if r := c.Retired(); r < retireTarget {
				// Stop strictly before the loop-exit predicate could
				// flip at a skipped macro boundary.
				toTarget := (retireTarget - r + width - 1) / width
				if toTarget-1 < maxSteps {
					maxSteps = toTarget - 1
				}
			}
		}
	}
	k := maxSteps / 3 // macro cycles: 3 CPU steps each
	if k <= 0 {
		return 0
	}
	// DRAM ticks run at base, base+3 (mod 6); none of the skipped ones
	// may reach the controller's cached event horizon.
	if km := (int64(s.mcHorizon-base) + 2) / 6; km < k {
		k = km
	}
	// LLC-hit completions maturing inside the window are absorbed by
	// applySkip — except for a core whose regime a completion could
	// change (see cpu.WakesOnCompletion): CPU steps run at base, base+2,
	// base+4 (mod 6), and no skipped step may reach that entry's ready
	// tick.
	for i := range s.hitQ {
		e := &s.hitQ[i]
		if e.ready > base+dram.Tick(6*k-2) {
			break // beyond the window (FIFO: later entries are too)
		}
		if e.op.Core().WakesOnCompletion() {
			if kh := (int64(e.ready-base) + 1) / 6; kh < k {
				k = kh
			}
			break
		}
	}
	if k < 0 {
		return 0
	}
	return k
}

// applySkip fast-forwards k whole macro cycles: cores advance 3k CPU
// cycles under their cached hints, and the stepping-order rotation
// advances as if cpuStep had run 3k times. Nothing else holds
// time-dependent state — the memory controller, DRAM banks, LLC, hit
// queue and writeback queue are all untouched because the horizon proved
// they would be.
func (s *simulator) applySkip(k int64) {
	steps := 3 * k
	for _, c := range s.cores {
		c.Skip(steps)
	}
	s.rotate += int(steps)
	// Absorb LLC-hit completions that matured inside the window: their
	// cores' regimes provably ignore them until a boundary at or after
	// the skip end (skippableMacroCycles stopped short of any that
	// would not), so completing them here is indistinguishable from
	// completing them at their exact CPU step.
	end := dram.Tick(s.tick) + dram.Tick(6*k-2)
	n := 0
	for n < len(s.hitQ) && s.hitQ[n].ready <= end {
		s.hitQ[n].op.Complete()
		n++
	}
	if n > 0 {
		s.hitQ = s.hitQ[n:]
	}
	s.tick += 6 * k
}

// assertLockstep compares the event-driven simulator against its
// cycle-accurate shadow after both advanced through the same macro
// cycles; any mismatch is a clocking bug, reported with enough state to
// localize it. It runs only under ClockLockstep, at most once per
// divergence, on a path that ends in a panic — diagnostic machinery,
// not simulation.
//
//impress:coldpath
func (s *simulator) assertLockstep(skipped int64) {
	fail := func(what string, ev, ca any) {
		panic(fmt.Sprintf(
			"sim: lockstep divergence after tick %d (skipped %d macro cycles): %s: event-driven %v vs cycle-accurate %v",
			s.tick, skipped, what, ev, ca))
	}
	sh := s.shadow
	if s.tick != sh.tick {
		fail("tick", s.tick, sh.tick)
	}
	for i, c := range s.cores {
		cs := sh.cores[i]
		if c.Cycles() != cs.Cycles() {
			fail(fmt.Sprintf("core %d cycles", i), c.Cycles(), cs.Cycles())
		}
		if c.Fetched() != cs.Fetched() {
			fail(fmt.Sprintf("core %d fetched", i), c.Fetched(), cs.Fetched())
		}
		if c.Retired() != cs.Retired() {
			fail(fmt.Sprintf("core %d retired", i), c.Retired(), cs.Retired())
		}
		if c.Outstanding() != cs.Outstanding() {
			fail(fmt.Sprintf("core %d outstanding", i), c.Outstanding(), cs.Outstanding())
		}
		if c.FinishCycle() != cs.FinishCycle() {
			fail(fmt.Sprintf("core %d finish cycle", i), c.FinishCycle(), cs.FinishCycle())
		}
	}
	if len(s.hitQ) != len(sh.hitQ) {
		fail("hit-queue length", len(s.hitQ), len(sh.hitQ))
	}
	if len(s.pendingWB) != len(sh.pendingWB) {
		fail("pending writebacks", len(s.pendingWB), len(sh.pendingWB))
	}
	if ev, ca := s.mc.Stats(), sh.mc.Stats(); ev != ca {
		fail("memory stats", fmt.Sprintf("%+v", ev), fmt.Sprintf("%+v", ca))
	}
	if s.llc.Hits() != sh.llc.Hits() || s.llc.Misses() != sh.llc.Misses() {
		fail("LLC hits/misses",
			fmt.Sprintf("%d/%d", s.llc.Hits(), s.llc.Misses()),
			fmt.Sprintf("%d/%d", sh.llc.Hits(), sh.llc.Misses()))
	}
}

// cancelled polls the run's context at a macro-cycle boundary. The
// fast path — no cancellable context — is a single nil-check, so
// uncancellable runs and the cycle-accurate reference clock pay nothing
// measurable for cancellability.
func (s *simulator) cancelled() bool {
	if s.done == nil {
		return false
	}
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// cancelErr builds the typed cancellation error for the current run,
// matching both errs.ErrCancelled and the context's own error.
func (s *simulator) cancelErr() error {
	return fmt.Errorf("sim: %s stopped after %d cycles: %w",
		s.cfg.Workload.Name, s.tick/6, errs.Cancelled(s.ctxErr()))
}

func (s *simulator) runUntilRetired(target int64) error {
	for {
		if s.cancelled() {
			return s.cancelErr()
		}
		done := true
		for _, c := range s.cores {
			if c.Retired() < target {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		s.advance(target)
	}
}

func (s *simulator) run() (Result, error) {
	if err := s.warmup(); err != nil {
		return Result{}, err
	}
	memBase := s.mc.Stats()
	for _, c := range s.cores {
		c.ResetStats()
		c.SetBudget(s.cfg.RunInstructions)
	}
	if s.shadow != nil {
		for _, c := range s.shadow.cores {
			c.ResetStats()
			c.SetBudget(s.cfg.RunInstructions)
		}
	}
	maxCycles := s.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 100 * s.cfg.RunInstructions
	}
	startCycle := s.cores[0].Cycles()
	for {
		if s.cancelled() {
			return Result{}, s.cancelErr()
		}
		done := true
		for _, c := range s.cores {
			if !c.Finished() {
				done = false
				break
			}
		}
		if done {
			break
		}
		if s.cores[0].Cycles()-startCycle > maxCycles {
			panic(fmt.Sprintf("sim: %s exceeded cycle bound (deadlock?)", s.cfg.Workload.Name))
		}
		s.advance(0)
	}

	res := Result{
		Workload: s.cfg.Workload.Name,
		Cycles:   s.cores[0].Cycles() - startCycle,
	}
	for _, c := range s.cores {
		ipc := c.IPC()
		res.IPC = append(res.IPC, ipc)
		res.WeightedIPCSum += ipc
	}
	res.Mem = s.mc.Stats().Sub(memBase)
	res.LLCHitRate = s.llc.HitRate()
	return res, nil
}
