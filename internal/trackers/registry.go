package trackers

import (
	"impress/internal/stats"
)

// The tracker registry: the single source of truth for the zoo of
// trackers every cross-cutting surface must cover — the simulator's
// TrackerKind validation and factory, the security sweep universe, the
// storage-comparison table, the synthesis target list and the CLIs'
// flag help. The exhaustiveness test in the experiments package walks
// this list, so adding an entry here forces every one of those surfaces
// to grow with it (and forgetting to register a new tracker fails the
// zoo test that asserts registration). PRAC stays outside the
// registry: it is an analytic-side model (the prac table runs it in the
// security harness) without the Snapshotter support the simulator's
// checkpoint contract requires.

// Info describes one registered tracker.
type Info struct {
	// Name is the tracker's registry key, equal to Tracker.Name() of
	// every instance New builds.
	Name string
	// InDRAM reports where the tracker lives (in-DRAM trackers mitigate
	// under RFM).
	InDRAM bool
	// New builds a per-bank instance tuned to the tolerated threshold
	// trh (already design-reduced to T*). rfmth configures RFM-paced
	// in-DRAM trackers. rng is the caller's seed stream: probabilistic
	// trackers split their own private stream from it at construction;
	// deterministic trackers leave it untouched, so adding one to the
	// registry never perturbs an existing run's RNG chain.
	New func(trh float64, rfmth int, rng *stats.Rand) Tracker
}

// registry is kept in sorted-by-name order; Registry returns a copy so
// callers cannot perturb it.
var registry = []Info{
	{
		Name: "abacus",
		New: func(trh float64, _ int, _ *stats.Rand) Tracker {
			return NewABACuS(trh)
		},
	},
	{
		Name: "graphene",
		New: func(trh float64, _ int, _ *stats.Rand) Tracker {
			return NewGraphene(trh)
		},
	},
	{
		Name: "hydra",
		New: func(trh float64, _ int, _ *stats.Rand) Tracker {
			return NewHydra(trh)
		},
	},
	{
		Name:   "mint",
		InDRAM: true,
		New: func(_ float64, rfmth int, rng *stats.Rand) Tracker {
			return NewMINT(rfmth, rng.Split())
		},
	},
	{
		Name:   "mithril",
		InDRAM: true,
		New: func(trh float64, rfmth int, _ *stats.Rand) Tracker {
			return NewMithril(trh, rfmth)
		},
	},
	{
		Name: "para",
		New: func(trh float64, _ int, rng *stats.Rand) Tracker {
			return NewPARA(trh, rng.Split())
		},
	},
}

// Registry returns every registered tracker, sorted by name.
func Registry() []Info {
	return append([]Info(nil), registry...)
}

// Names returns the registered tracker names, sorted.
func Names() []string {
	names := make([]string, len(registry))
	for i, info := range registry {
		names[i] = info.Name
	}
	return names
}

// ByName looks up a registered tracker.
func ByName(name string) (Info, bool) {
	for _, info := range registry {
		if info.Name == name {
			return info, true
		}
	}
	return Info{}, false
}
