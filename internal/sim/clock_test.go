package sim

import (
	"reflect"
	"testing"

	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/trace"
)

// clockCases is a representative sweep over workload intensity, defense
// design and tracker kind for the clock-equivalence checks: every
// controller feature the event horizon must model (refresh drains,
// forced closures under tMRO, idle closures, ImPress-N window feeds,
// PARA's per-ACT randomness, MINT/Mithril RFM cadence, heavy mitigation
// traffic at a tiny threshold) appears at least once.
var clockCases = []struct {
	workload string
	kind     core.Kind
	tracker  TrackerKind
	trh      float64
}{
	{"gcc", core.NoRP, TrackerNone, 4000},
	{"copy", core.NoRP, TrackerNone, 4000},
	{"mcf", core.ImpressP, TrackerGraphene, 4000},
	{"copy", core.ImpressN, TrackerGraphene, 4000},
	{"gcc", core.ExPress, TrackerPARA, 4000},
	{"copy", core.ImpressP, TrackerMINT, 1600},
	{"add", core.ImpressP, TrackerMithril, 4000},
	{"xalancbmk", core.ImpressN, TrackerGraphene, 4000},
	{"mcf", core.ImpressP, TrackerGraphene, 100},
	{"mcf", core.ImpressP, TrackerHydra, 4000},
	{"copy", core.ImpressP, TrackerABACuS, 4000},
}

func clockConfig(t *testing.T, workload string, kind core.Kind, tracker TrackerKind, trh float64) Config {
	t.Helper()
	w, err := trace.WorkloadByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(w, core.NewDesign(kind), tracker)
	cfg.DesignTRH = trh
	cfg.WarmupInstructions = 10_000
	cfg.RunInstructions = 40_000
	return cfg
}

// TestClockEquivalence is the tentpole guarantee: the event-driven clock
// produces byte-identical Results to cycle-accurate stepping.
// TestLockstepClockCases runs the same configurations under the
// per-macro-cycle cross-check.
func TestClockEquivalence(t *testing.T) {
	for _, tc := range clockCases {
		cfg := clockConfig(t, tc.workload, tc.kind, tc.tracker, tc.trh)
		cfg.Clock = ClockCycleAccurate
		ca := mustRun(t, cfg)
		cfg.Clock = ClockEventDriven
		if ev := mustRun(t, cfg); !reflect.DeepEqual(ca, ev) {
			t.Errorf("%s/%v/%s: event-driven diverged from cycle-accurate:\nCA %+v\nEV %+v",
				tc.workload, tc.kind, tc.tracker, ca, ev)
		}
	}
}

// TestSkipWindowsAreProvablyIdle validates the NextEvent/SkipHint
// contracts directly: it computes each skip decision, then steps through
// the window cycle-by-cycle instead of applying it, and fails if the
// memory controller changed state, a core deviated from its hinted
// fetch/retire rates, or a writeback drained — any of which would mean
// the horizon declared a window idle that was not.
func TestSkipWindowsAreProvablyIdle(t *testing.T) {
	if testing.Short() {
		t.Skip("skip-window audit skipped in -short mode")
	}
	for _, tc := range clockCases {
		cfg := clockConfig(t, tc.workload, tc.kind, tc.tracker, tc.trh)
		cfg.WarmupInstructions = 8_000
		cfg.RunInstructions = 20_000
		auditSkips(t, cfg)
	}
}

// auditSkips runs cfg, stepping through every window the event clock
// would skip instead of applying it, and fails t if anything the skip
// ignores happens inside the window.
func auditSkips(t *testing.T, cfg Config) {
	t.Helper()
	s := newSimulator(cfg)
	name := cfg.Workload.Name + "/" + cfg.Design.Name() + "/" + string(cfg.Tracker)
	runLoop(t, s, func(target int64) {
		base := s.tick
		k := s.skippableMacroCycles(target)
		if k == 0 {
			s.step()
			return
		}
		// Step through the window the skip would have jumped over and
		// verify nothing the skip ignores actually happens in it.
		before := s.mc.Stats()
		want := make([]lockstepCore, len(s.cores))
		hints := make([]int64, 2*len(s.cores)) // fetch/retire rates
		for i, c := range s.cores {
			want[i] = coreView(s, i)
			if !s.parked[i] { // a parked core is stalled: zero rates
				h := c.CurrentHint()
				hints[2*i], hints[2*i+1] = h.FetchPerStep, h.RetirePerStep
			}
		}
		wbLen := s.pendingWB.len()
		for i := int64(0); i < k; i++ {
			s.step()
			if cur := s.mc.Stats(); cur != before {
				t.Fatalf("%s: base=%d k=%d: controller changed state at skipped macro %d:\nbefore %+v\nafter  %+v",
					name, base, k, i, before, cur)
			}
		}
		for i := range s.cores {
			ef := want[i].Fetched + 3*k*hints[2*i]
			er := want[i].Retired + 3*k*hints[2*i+1]
			ec := want[i].Cycles + 3*k
			if got := coreView(s, i); got.Fetched != ef || got.Retired != er || got.Cycles != ec {
				t.Fatalf("%s: base=%d k=%d: core %d deviated from hint (f/r per step %d/%d): fetched %d want %d, retired %d want %d, cycles %d want %d",
					name, base, k, i, hints[2*i], hints[2*i+1],
					got.Fetched, ef, got.Retired, er, got.Cycles, ec)
			}
		}
		if s.pendingWB.len() != wbLen {
			t.Fatalf("%s: base=%d k=%d: writebacks drained inside a skip window (%d -> %d)",
				name, base, k, wbLen, s.pendingWB.len())
		}
	}, nil)
}

// fillStallGen warms one line with a posted write, then issues LLC-hit
// reads separated by long plain-instruction runs: the core ends up in
// the fill regime (fetching ahead of a head-stalled read) exactly when
// that head's hit completion matures, with the controller otherwise
// idle.
type fillStallGen struct{ n int }

func (g *fillStallGen) Name() string { return "fillstall" }

func (g *fillStallGen) Next() trace.Request {
	g.n++
	if g.n == 1 {
		return trace.Request{Addr: 64, Write: true, Gap: 0}
	}
	return trace.Request{Addr: 64, Gap: 3000}
}

// TestClockEquivalenceFillRegimeCompletion is the regression test for a
// skip-absorption bug: an LLC-hit completion that marks a fill-regime
// core's stalled ROB head Done must end the skip window (the core starts
// retiring that very cycle), not be absorbed into it. The Table II ROB
// (352 entries) lets the fill regime span 58 cycles — longer than the
// 44-cycle LLC hit latency — so with an otherwise idle memory system the
// completion matures inside the skip window; a smaller ROB would hide
// the bug behind the ROB-full stall.
func TestClockEquivalenceFillRegimeCompletion(t *testing.T) {
	w := trace.Workload{
		Name:         "fillstall",
		NewGenerator: func(int, uint64) trace.Generator { return &fillStallGen{} },
	}
	cfg := DefaultConfig(w, core.NewDesign(core.NoRP), TrackerNone)
	cfg.Cores = 1
	cfg.WarmupInstructions = 5_000
	cfg.RunInstructions = 30_000
	cfg.Clock = ClockCycleAccurate
	ca := mustRun(t, cfg)
	cfg.Clock = ClockEventDriven
	ev := mustRun(t, cfg)
	if !reflect.DeepEqual(ca, ev) {
		t.Fatalf("fill-regime completion diverged:\nCA %+v\nEV %+v", ca, ev)
	}
	runLockstep(t, cfg) // fails on the first divergent macro cycle
}

// TestEventClockSkips asserts the event-driven clock actually skips work
// on an idle-heavy configuration (guarding against silent regressions
// that would leave it bit-identical but cycle-by-cycle slow).
func TestEventClockSkips(t *testing.T) {
	cfg := clockConfig(t, "gcc", core.NoRP, TrackerNone, 4000)
	s := newSimulator(cfg)
	var skipped int64
	runLoop(t, s, func(target int64) { skipped += eventAdvance(s, target) }, nil)
	if skipped == 0 {
		t.Fatal("event-driven clock never skipped a macro cycle on gcc")
	}
	// dram.TickMax is the documented "never" horizon; make sure an idle
	// controller reports a finite one (the refresh cadence bounds it).
	if h := s.mc.NextEvent(dram.Tick(s.tick)); h == dram.TickMax {
		t.Fatal("controller horizon must be bounded by the refresh cadence")
	}
}
