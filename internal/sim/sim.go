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
	// semantics the event-driven clock is checked against).
	ClockCycleAccurate
	// ClockSampled is the explicitly approximate mode: SMARTS-style
	// interval sampling alternates short detailed windows (event-driven,
	// exact) with functionally fast-forwarded gaps in which only the LLC
	// is warmed and no time passes. Results are estimates with 95%
	// confidence intervals (Result.Estimates) and are NOT bit-identical
	// to the exact modes; the statistical validation tier
	// (TestSampledErrorBounds) quantifies the error. See DESIGN.md §12.
	ClockSampled
)

// Validate rejects a clock mode outside the list above with a typed
// errs.ErrBadSpec error. It is the one place the modes are enumerated.
func (m ClockMode) Validate() error {
	switch m {
	case ClockEventDriven, ClockCycleAccurate, ClockSampled:
		return nil
	}
	return fmt.Errorf("sim: %w: unknown clock mode %d", errs.ErrBadSpec, m)
}

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

	// MaxCycles bounds warmup and the measured run, each on its own, as a
	// deadlock safety net (0 = 100x the phase's instruction budget).
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
// budgets, a non-finite threshold or error bound, an invalid defense
// design — except the trace file itself,
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
	if err := cfg.Clock.Validate(); err != nil {
		return err
	}
	if cfg.WarmupInstructions < 0 || cfg.RunInstructions < 0 {
		return fmt.Errorf("sim: %w: negative instruction budget (warmup %d, run %d)",
			errs.ErrBadSpec, cfg.WarmupInstructions, cfg.RunInstructions)
	}
	if math.IsNaN(cfg.DesignTRH) || math.IsInf(cfg.DesignTRH, 0) {
		return fmt.Errorf("sim: %w: non-finite design threshold %v", errs.ErrBadSpec, cfg.DesignTRH)
	}
	if !(cfg.MaxRelError >= 0) || math.IsInf(cfg.MaxRelError, 0) {
		return fmt.Errorf("sim: %w: max relative error %v is negative or not finite", errs.ErrBadSpec, cfg.MaxRelError)
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
// invariant violations (the MaxCycles deadlock bound, a replay
// recording exhausted mid-run) still panic.
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
		r, err := openTraceFile(&cfg)
		if err != nil {
			return Result{}, err
		}
		defer r.Close()
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

// openTraceFile points cfg at the recorded trace named by cfg.TraceFile:
// the recording's workload, core count and seed replace cfg's. The
// streaming reader loads only the header and frame index here; the
// replay generators pull frames from the file as the run consumes them,
// so replay memory does not scale with trace size. The caller closes the
// reader once the run ends.
func openTraceFile(cfg *Config) (*trace.Reader, error) {
	r, err := trace.OpenReader(cfg.TraceFile)
	if err != nil {
		return nil, fmt.Errorf("sim: %w: %w", errs.ErrBadSpec, err)
	}
	w, err := r.Workload()
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("sim: %w: %w", errs.ErrBadSpec, err)
	}
	cfg.Workload = w
	cfg.Cores = r.Header().Cores
	cfg.Seed = r.Header().Seed
	return r, nil
}

// simulator holds the wired system.
type simulator struct {
	cfg Config
	mc  *memctrl.Controller
	llc *cache.Cache

	cores []*cpu.Core

	// mshrs merges outstanding line fetches.
	mshrs mshrTable

	// hitQ is a FIFO of LLC-hit completions (fixed latency preserves
	// order).
	hitQ ring[hitEntry]

	// pendingWB holds writebacks awaiting write-queue space (pre-mapped,
	// drained FIFO).
	pendingWB ring[memctrl.Request]

	now    dram.Tick
	tick   int64
	rotate int

	// cycle counts CPU cycles: every awake core's Cycles() equals it.
	cycle int64

	// Parked cores. A core whose cached regime is the fully stalled one
	// (cpu.Core.Stalled) is parked: cpuStep skips it instead of stepping
	// it through clock-only cycles, and wake brings its clock up to cycle
	// with Skip before anything can end the stall — before each Complete
	// of one of its operations, and, for a core the memory system
	// refused, when its refused line's channel pops a read (see Version).
	// parkCh holds that channel for a refused parked core and -1
	// otherwise; refused counts the cores with parkCh >= 0.
	parked  []bool
	parkCh  []int
	refused int

	// readPops counts each channel's read issues, and epoch moves when
	// DropQueued or a checkpoint restore replaces the queues wholesale:
	// together they implement cpu.MemorySystem.Version.
	readPops []uint64
	epoch    uint64

	// mcBusy and mcHorizon cache the controller's event horizon: while
	// the controller reports inactive Ticks, DRAM cycles before
	// mcHorizon are provably no-ops and dramStep skips them. Any Push
	// sets mcBusy so the next DRAM cycle ticks for real.
	mcBusy    bool
	mcHorizon dram.Tick

	// done and ctxErr carry the run's cancellation signal (RunContext).
	// done is nil for uncancellable contexts (context.Background()), so
	// the per-macro-cycle poll degenerates to one nil-check.
	done   <-chan struct{}
	ctxErr func() error
}

type hitEntry struct {
	ready dram.Tick
	op    *cpu.MemOp
}

func newSimulator(cfg Config) *simulator {
	s := &simulator{
		cfg:    cfg,
		llc:    cache.New(cfg.LLC),
		parked: make([]bool, cfg.Cores),
		parkCh: make([]int, cfg.Cores),
	}
	rng := stats.NewRand(cfg.Seed)
	factory := trackerFactory(cfg, rng)
	mcCfg := memctrl.DefaultConfig(cfg.Design, factory, cfg.RFMTH)
	mcCfg.OnReadComplete = s.readComplete
	s.mc = memctrl.New(mcCfg)
	s.mshrs = newMSHRTable(mcCfg.Mapper.Channels * mcCfg.ReadQueueCap)
	s.readPops = make([]uint64, mcCfg.Mapper.Channels)
	for i := range s.parkCh {
		s.parkCh[i] = -1
	}
	coreCfg := cfg.CPU
	coreCfg.NoFastPath = cfg.Clock == ClockCycleAccurate
	for i := 0; i < cfg.Cores; i++ {
		gen := cfg.Workload.NewGenerator(i, cfg.Seed)
		s.cores = append(s.cores, cpu.New(i, coreCfg, gen, s))
	}
	s.mcBusy = true // force the first DRAM cycle to tick
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
// stall verdicts and re-evaluate only when this moves. It is scoped to
// addr's channel: read pops there, plus an epoch for wholesale queue
// changes. That is exact. A refusal means the channel's read queue is
// full, the line is not in the LLC and no MSHR holds it. An MSHR for the
// line needs a push into that full queue, and an LLC fill of it needs
// the MSHR, so only a read pop on the channel (or a DropQueued or
// restore) can flip the verdict. Fills, MSHR allocations and write issues
// elsewhere leave it alone.
func (s *simulator) Version(addr uint64) uint64 {
	return s.readPops[s.mc.Map(lineAddr(addr/trace.LineSize)).Channel] + s.epoch
}

// CanAccept implements cpu.MemorySystem. Uncached operations may not
// rely on LLC residency (they bypass the cache), so they need an MSHR
// merge or read-queue space. The verdict is an OR of the three tests;
// read-queue space, the cheapest, goes first.
func (s *simulator) CanAccept(addr uint64, write, uncached bool) bool {
	line := addr / trace.LineSize
	if s.mc.CanPush(s.mc.Map(lineAddr(line)), false) {
		return true // misses fetch the line (write-allocate)
	}
	if !uncached && s.llc.Contains(addr) {
		return true
	}
	return s.mshrs.get(line) != nil // merge
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
		s.hitQ.push(hitEntry{
			ready: s.now + dram.Tick(s.cfg.LLCLatency*dram.TicksPerCPUCycle),
			op:    op,
		})
		return
	}
	line := op.Addr / trace.LineSize
	if m := s.mshrs.get(line); m != nil {
		// Uncached operations may merge into an in-flight fetch of the
		// same line (cacheable or not); the allocator decides whether the
		// returning data fills the LLC.
		m.dirty = m.dirty || op.Write
		if !op.Write {
			m.waiters = append(m.waiters, op)
		}
		return
	}
	m := s.mshrs.alloc(line)
	m.dirty, m.uncached = op.Write, op.Uncached
	if !op.Write {
		m.waiters = append(m.waiters, op)
	}
	addr := lineAddr(line)
	s.mc.Push(s.now, &memctrl.Request{Addr: addr, Loc: s.mc.Map(addr)})
	s.mcBusy = true
}

func lineAddr(line uint64) uint64 { return line * trace.LineSize }

// readComplete is the controller's read-completion callback, called as
// the read issues (its queue pop): it wakes the cores parked on a refusal
// by this channel, then resolves the finished request back to its MSHR
// by line address. A single method value installed once at construction
// replaces a per-miss closure, which would allocate on the hot path
// (DESIGN.md §10).
//
//impress:hotpath
func (s *simulator) readComplete(req *memctrl.Request, _ dram.Tick) {
	ch := req.Loc.Channel
	s.readPops[ch]++
	if s.refused > 0 {
		for i, pc := range s.parkCh {
			if pc == ch {
				s.wake(i)
			}
		}
	}
	if m := s.mshrs.get(req.Addr / trace.LineSize); m != nil {
		s.fill(m)
	}
}

func (s *simulator) fill(m *mshr) {
	if m.uncached {
		// LLC bypass: no fill, no eviction. A dirty uncached line is
		// written straight back to memory (write-through after fetch).
		if m.dirty {
			s.pendingWB.push(memctrl.Request{
				Addr: lineAddr(m.line), Write: true, Loc: s.mc.Map(lineAddr(m.line)),
			})
		}
	} else {
		victim, evicted := s.llc.Fill(lineAddr(m.line), m.dirty)
		if evicted && victim.Dirty {
			s.pendingWB.push(memctrl.Request{
				Addr: victim.Addr, Write: true, Loc: s.mc.Map(victim.Addr),
			})
		}
	}
	for _, op := range m.waiters {
		s.complete(op)
	}
	s.mshrs.release(m)
}

// complete finishes op, first waking its core if it is parked: the
// completion can end the stall, and the core's clock must be current
// when it does.
//
//impress:hotpath
func (s *simulator) complete(op *cpu.MemOp) {
	s.wake(op.Core().ID())
	op.Complete()
}

// park stops stepping core i, which just reported the fully stalled
// regime; refused and addr are cpu.Core.Stalled's.
//
//impress:hotpath
func (s *simulator) park(i int, refused bool, addr uint64) {
	s.parked[i] = true
	if refused {
		s.parkCh[i] = s.mc.Map(lineAddr(addr / trace.LineSize)).Channel
		s.refused++
	}
}

// wake resumes stepping core i if it is parked, skipping its clock over
// the cycles it sat out; in the stalled regime each of them only
// advanced the clock.
//
//impress:hotpath
func (s *simulator) wake(i int) {
	if !s.parked[i] {
		return
	}
	c := s.cores[i]
	c.Skip(s.cycle - c.Cycles())
	s.parked[i] = false
	if s.parkCh[i] >= 0 {
		s.parkCh[i] = -1
		s.refused--
	}
}

// wakeAll wakes every parked core: at phase boundaries (the end of
// warmup, of the measured run and of each sampled window, and before a
// sampled fast-forward), where the cores' clocks are read or their
// budgets reset.
func (s *simulator) wakeAll() {
	for i := range s.cores {
		s.wake(i)
	}
}

func (s *simulator) drainWritebacks() {
	for s.pendingWB.len() > 0 {
		req := s.pendingWB.at(0)
		if !s.mc.CanPush(req.Loc, true) {
			break // FIFO: head-of-line blocking keeps order and work bounded
		}
		s.mc.Push(s.now, req)
		s.pendingWB.pop()
		s.mcBusy = true
	}
}

// cpuStep runs one CPU cycle: LLC-hit completions that are ready, then
// one Step of every awake core, parking each that reports the fully
// stalled regime. No core's Step can wake another (a Step issues
// accesses, but completes nothing and pops no read), so skipping a
// parked core leaves the rest of the cycle as it was.
//
//impress:hotpath
func (s *simulator) cpuStep(t dram.Tick) {
	s.now = t
	// Complete LLC hits that are ready (FIFO order by construction).
	for s.hitQ.len() > 0 && s.hitQ.at(0).ready <= t {
		op := s.hitQ.at(0).op
		s.hitQ.pop()
		s.complete(op)
	}
	// Rotate the stepping order so no core gets systematic first claim on
	// queue space (rate-mode fairness).
	n := len(s.cores)
	j := s.rotate % n
	s.rotate++
	for range n {
		if !s.parked[j] {
			c := s.cores[j]
			c.Step()
			if stalled, refused, addr := c.Stalled(); stalled {
				s.park(j, refused, addr)
			}
		}
		if j++; j == n {
			j = 0
		}
	}
	s.cycle++
}

func (s *simulator) dramStep(t dram.Tick) {
	s.now = t
	if s.pendingWB.len() > 0 {
		s.drainWritebacks()
	}
	if !s.eventClock() {
		// Reference mode: tick unconditionally and skip the horizon
		// bookkeeping — nothing reads it (cores run with NoFastPath), and
		// computing it would bill the cycle-accurate baseline for
		// event-clock machinery it does not use.
		s.mc.Tick(t)
		return
	}
	if !s.mcBusy && t < s.mcHorizon {
		return // provably a no-op DRAM cycle (Controller.NextEvent)
	}
	if s.mc.Tick(t) {
		s.mcBusy = true
	} else {
		s.mcBusy = false
		// Events strictly after t (this cycle just proved a no-op).
		s.mcHorizon = s.mc.NextEvent(t + 1)
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
	if s.eventClock() {
		if k := s.skippableMacroCycles(retireTarget); k > 0 {
			s.applySkip(k)
		}
	}
	s.step()
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
	if s.pendingWB.len() > 0 && s.mc.CanPush(s.pendingWB.at(0).Loc, true) {
		return 0 // the next DRAM step drains a writeback
	}
	maxSteps := int64(math.MaxInt64) // bound in CPU steps
	width := int64(s.cfg.CPU.Width)
	for i, c := range s.cores {
		if s.parked[i] {
			continue // stalled: no bound, and its hint is intact
		}
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
	for i := 0; i < s.hitQ.len(); i++ {
		e := s.hitQ.at(i)
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

// applySkip fast-forwards k whole macro cycles: awake cores advance 3k
// CPU cycles under their cached hints (parked ones catch up when they
// wake), and the stepping-order rotation advances as if cpuStep had run
// 3k times. Nothing else holds time-dependent state — the memory
// controller, DRAM banks, LLC, hit queue and writeback queue are all
// untouched because the horizon proved they would be.
func (s *simulator) applySkip(k int64) {
	steps := 3 * k
	for i, c := range s.cores {
		if !s.parked[i] {
			c.Skip(steps)
		}
	}
	s.cycle += steps
	s.rotate += int(steps)
	// Absorb LLC-hit completions that matured inside the window: their
	// cores' regimes provably ignore them until a boundary at or after
	// the skip end (skippableMacroCycles stopped short of any that
	// would not), so completing them here is indistinguishable from
	// completing them at their exact CPU step.
	end := dram.Tick(s.tick) + dram.Tick(6*k-2)
	for s.hitQ.len() > 0 && s.hitQ.at(0).ready <= end {
		op := s.hitQ.at(0).op
		s.hitQ.pop()
		s.complete(op)
	}
	s.tick += 6 * k
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

// runUntilRetired advances until every core has retired target
// instructions (the warmup phase), under the same cycle bound as the
// measured run.
func (s *simulator) runUntilRetired(target int64) error {
	startCycle, bound := s.cycle, s.cycleBound(target)
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
		if s.cycle-startCycle > bound {
			panic(fmt.Sprintf("sim: %s exceeded cycle bound (deadlock?)", s.cfg.Workload.Name))
		}
		s.advance(target)
	}
}

// cycleBound is a phase's deadlock safety net: a phase that runs more
// than MaxCycles cycles, or 100x its instruction budget when MaxCycles
// is 0, panics.
func (s *simulator) cycleBound(budget int64) int64 {
	if s.cfg.MaxCycles != 0 {
		return s.cfg.MaxCycles
	}
	return 100 * budget
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
	startCycle, bound := s.cycle, s.cycleBound(s.cfg.RunInstructions)
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
		if s.cycle-startCycle > bound {
			panic(fmt.Sprintf("sim: %s exceeded cycle bound (deadlock?)", s.cfg.Workload.Name))
		}
		s.advance(0)
	}
	s.wakeAll()

	res := Result{
		Workload: s.cfg.Workload.Name,
		Cycles:   s.cycle - startCycle,
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
