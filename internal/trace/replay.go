package trace

import "fmt"

// Workload converts a recorded trace into a replayable Workload: the
// returned workload's per-core generators return the recorded requests in
// order, so it drops into sim.RunContext (or any other Generator
// consumer) unchanged. The replay-equivalence contract (DESIGN.md §7): a simulation
// of the replayed workload is bit-identical — same Result, same Stats, in
// every clock mode — to the live-generator run the trace was recorded
// from, provided the recording covers at least as many requests per core
// as the live run consumed. Running out of recorded requests mid-run
// panics with a message naming the exhausted core rather than silently
// diverging.
//
// The trace must have been recorded at the simulator's line size, and a
// replayed simulation can use at most len(t.PerCore) cores. For traces
// too large to materialize, Reader.Workload replays the same contract
// from disk with a fixed per-core buffer.
func (t *Trace) Workload() (Workload, error) {
	if len(t.PerCore) == 0 {
		return Workload{}, fmt.Errorf("trace: %q records no cores", t.Name)
	}
	if t.LineSize != LineSize {
		return Workload{}, fmt.Errorf("trace: %q recorded at %d-byte lines; the simulator uses %d",
			t.Name, t.LineSize, LineSize)
	}
	return Workload{
		Name:   t.Name,
		Stream: t.Stream,
		NewGenerator: func(coreID int, _ uint64) Generator {
			if coreID < 0 || coreID >= len(t.PerCore) {
				panic(fmt.Sprintf("trace: %q records %d cores; generator for core %d requested",
					t.Name, len(t.PerCore), coreID))
			}
			return &replayGen{name: t.Name, core: coreID, reqs: t.PerCore[coreID]}
		},
	}, nil
}

// replayGen replays one core's recorded stream. Each generator instance
// keeps its own cursor and caches its core's slice, so one Trace can
// feed any number of concurrent simulations and the per-request cost is
// one bounds check and an index.
type replayGen struct {
	name string
	core int
	reqs []Request
	pos  int
}

// Name implements Generator.
func (g *replayGen) Name() string { return g.name }

// Next implements Generator: it returns the next recorded request. It
// feeds cpu.Core.Step on the simulator hot path.
//
//impress:hotpath
func (g *replayGen) Next() Request {
	if g.pos >= len(g.reqs) {
		panic(fmt.Sprintf(
			"trace: %q core %d exhausted after %d replayed requests; re-record with a larger per-core request budget",
			g.name, g.core, g.pos))
	}
	req := g.reqs[g.pos]
	g.pos++
	return req
}
