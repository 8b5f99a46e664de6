package sim

import (
	"fmt"
	"testing"

	"impress/internal/core"
	"impress/internal/cpu"
	"impress/internal/memctrl"
)

// runLoop drives s by hand through the loop simulator.run executes, with
// advance standing in for s.advance: warmup until every core has retired
// WarmupInstructions (none when s restored a checkpoint), the
// ResetStats/SetBudget boundary, then the measured run until every core
// finishes. target is the retirement threshold run passes to advance.
// atBudget, when non-nil, runs just after the boundary. Either phase
// fails tb once it outlasts run's deadlock bound.
//
// Like warmup, the boundary wakes every parked core first; everywhere
// else parks last, and checks read parked cores through coreView.
func runLoop(tb testing.TB, s *simulator, advance func(target int64), atBudget func()) {
	tb.Helper()
	cfg := s.cfg
	phase := func(name string, target, bound int64, done func(*cpu.Core) bool) {
		tb.Helper()
		start := s.cycle
		for {
			finished := true
			for _, c := range s.cores {
				if !done(c) {
					finished = false
					break
				}
			}
			if finished {
				return
			}
			if s.cycle-start > bound {
				tb.Fatalf("%s: %s exceeded %d cycles (deadlock?)", cfg.Workload.Name, name, bound)
			}
			advance(target)
		}
	}
	if w := cfg.WarmupInstructions; len(cfg.RestoreCheckpoint) == 0 && w > 0 {
		phase("warmup", w, 100*w, func(c *cpu.Core) bool { return c.Retired() >= w })
	}
	s.wakeAll()
	for _, c := range s.cores {
		c.ResetStats()
		c.SetBudget(cfg.RunInstructions)
	}
	if atBudget != nil {
		atBudget()
	}
	bound := cfg.MaxCycles
	if bound == 0 {
		bound = 100 * cfg.RunInstructions
	}
	phase("run", 0, bound, (*cpu.Core).Finished)
}

// eventAdvance is one iteration of simulator.advance under the
// event-driven clock, spelled out so the caller learns how many macro
// cycles it fast-forwarded before stepping one.
func eventAdvance(s *simulator, target int64) int64 {
	k := s.skippableMacroCycles(target)
	if k > 0 {
		s.applySkip(k)
	}
	s.step()
	return k
}

// lockstepPair is the clock cross-check: an event-driven simulator and
// a cycle-accurate reference built from the same config. Each advance
// runs one event-driven loop iteration — skip k provably idle macro
// cycles, step one — then steps the reference k+1 times and compares
// the two, so a clocking bug surfaces at the first macro cycle whose
// skip was wrong, with enough state to localize it.
type lockstepPair struct{ ev, ca *simulator }

func newLockstepPair(cfg Config) *lockstepPair {
	cfg.Clock = ClockEventDriven
	ev := newSimulator(cfg)
	cfg.Clock = ClockCycleAccurate
	return &lockstepPair{ev: ev, ca: newSimulator(cfg)}
}

func (p *lockstepPair) advance(target int64) error {
	k := eventAdvance(p.ev, target)
	for i := int64(0); i <= k; i++ {
		p.ca.step()
	}
	return p.diverged(k)
}

// lockstepSystem is what the cross-check compares beyond the cores.
type lockstepSystem struct {
	Tick               int64
	HitQ, PendingWB    int
	LLCHits, LLCMisses uint64
	Mem                memctrl.Stats
}

func lockstepSystemOf(s *simulator) lockstepSystem {
	return lockstepSystem{s.tick, s.hitQ.len(), s.pendingWB.len(), s.llc.Hits(), s.llc.Misses(), s.mc.Stats()}
}

// lockstepCore is what the cross-check compares per core.
type lockstepCore struct {
	Cycles, Fetched, Retired, FinishCycle int64
	Outstanding                           int
}

// coreView is the read-only catch-up view of core i: its state as if it
// had been stepped every cycle. A parked core's clock stops at its park
// and every other field is frozen by the stalled regime, so the view
// reads the simulator's cycle in place of the core's without waking it —
// parks then last across comparisons, as they do in a real run.
func coreView(s *simulator, i int) lockstepCore {
	c := s.cores[i]
	cycles := c.Cycles()
	if s.parked[i] {
		cycles = s.cycle
	}
	return lockstepCore{cycles, c.Fetched(), c.Retired(), c.FinishCycle(), c.Outstanding()}
}

// diverged describes the first difference between the pair after both
// advanced through the same macro cycles, or returns nil.
func (p *lockstepPair) diverged(skipped int64) error {
	fail := func(what string, ev, ca any) error {
		return fmt.Errorf("sim: lockstep divergence after tick %d (skipped %d macro cycles): %s: event-driven %+v vs cycle-accurate %+v",
			p.ev.tick, skipped, what, ev, ca)
	}
	if ev, ca := lockstepSystemOf(p.ev), lockstepSystemOf(p.ca); ev != ca {
		return fail("system", ev, ca)
	}
	for i := range p.ev.cores {
		if ev, ca := coreView(p.ev, i), coreView(p.ca, i); ev != ca {
			return fail(fmt.Sprintf("core %d", i), ev, ca)
		}
	}
	return nil
}

// runLockstep runs cfg — generator or trace-file workload, straight
// through or restored from cfg.RestoreCheckpoint — under the cross-check,
// failing tb at the first divergent macro cycle, and returns the
// event-driven simulator's Result as RunContext would build it.
func runLockstep(tb testing.TB, cfg Config) Result {
	tb.Helper()
	if cfg.TraceFile != "" {
		r, err := openTraceFile(&cfg)
		if err != nil {
			tb.Fatal(err)
		}
		defer r.Close()
	}
	if err := cfg.Validate(); err != nil {
		tb.Fatal(err)
	}
	p := newLockstepPair(cfg)
	if len(cfg.RestoreCheckpoint) > 0 {
		for _, s := range []*simulator{p.ev, p.ca} {
			if err := s.warmup(); err != nil { // restores; simulates nothing
				tb.Fatal(err)
			}
		}
	}
	var (
		memBase    memctrl.Stats
		startCycle int64
	)
	runLoop(tb, p.ev, func(target int64) {
		if err := p.advance(target); err != nil {
			tb.Fatal(err)
		}
	}, func() {
		for _, c := range p.ca.cores {
			c.ResetStats()
			c.SetBudget(cfg.RunInstructions)
		}
		memBase, startCycle = p.ev.mc.Stats(), p.ev.cycle
	})
	p.ev.wakeAll() // as run does
	res := Result{
		Workload:   cfg.Workload.Name,
		Cycles:     p.ev.cycle - startCycle,
		Mem:        p.ev.mc.Stats().Sub(memBase),
		LLCHitRate: p.ev.llc.HitRate(),
	}
	for _, c := range p.ev.cores {
		ipc := c.IPC()
		res.IPC = append(res.IPC, ipc)
		res.WeightedIPCSum += ipc
	}
	return res
}

// exactRuns runs a config under each exact clock and under the lockstep
// cross-check, for tests that hold every way of running to one Result.
var exactRuns = []struct {
	name  string
	clock ClockMode
	run   func(testing.TB, Config) Result
}{
	{"event", ClockEventDriven, mustRun},
	{"cycle", ClockCycleAccurate, mustRun},
	{"lockstep", ClockEventDriven, runLockstep},
}

// TestLockstepClockCases runs every clockCases configuration under the
// cross-check. Add a configuration there to localize a clocking bug:
// go test ./internal/sim -run Lockstep.
func TestLockstepClockCases(t *testing.T) {
	for _, tc := range clockCases {
		runLockstep(t, clockConfig(t, tc.workload, tc.kind, tc.tracker, tc.trh))
	}
}

// TestLockstepCatchesDivergence makes sure the cross-check is not
// vacuous: a pair desynchronized by one macro cycle must be reported.
func TestLockstepCatchesDivergence(t *testing.T) {
	p := newLockstepPair(clockConfig(t, "gcc", core.NoRP, TrackerNone, 4000))
	p.ca.step() // desynchronize: the reference is one macro cycle ahead
	for i := 0; i < 10_000; i++ {
		if err := p.advance(0); err != nil {
			return
		}
	}
	t.Fatal("lockstep did not detect a desynchronized pair")
}
