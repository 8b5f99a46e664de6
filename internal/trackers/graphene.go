package trackers

import (
	"fmt"
	"math"

	"impress/internal/clm"
)

// Graphene is the memory-controller-side counter tracker of Park et al.
// (MICRO'20), built on the Misra-Gries / Space-Saving frequent-items
// algorithm: a small table of (row, counter) entries plus a spillover
// counter guarantees that any row activated more than W/(entries+1) times
// within a window is tracked, where W is the total activation count.
//
// A mitigation (victim refresh) is issued whenever a tracked row's counter
// reaches the internal threshold (TRH/3 in the paper's configuration, 1333
// for TRH = 4K); the row's counter then resets and the row re-earns its
// way to the next mitigation. The whole table resets every refresh window.
type Graphene struct {
	threshold clm.EACT // internal mitigation threshold, fixed point

	slotTable
	spillover clm.EACT
}

// GrapheneInternalDivisor converts the tolerated Rowhammer threshold into
// Graphene's internal counter threshold (the paper uses TRH/3: the
// worst-case aggressor can accumulate damage across a counter reset and
// the Misra-Gries undercount, hence the 3x guard band).
const GrapheneInternalDivisor = 3

// GrapheneEntries returns the per-bank entry count needed to tolerate trh
// ("the number of tracking entries is inversely proportional to the
// threshold"): 448 entries at TRH = 4K, doubling to 896 at T* = 2K,
// exactly as Section VI-C reports.
func GrapheneEntries(trh float64) int {
	if trh <= 0 {
		panic("trackers: non-positive TRH")
	}
	const k = 448 * 4000 // calibration anchor from the paper
	return int(math.Ceil(k / trh))
}

// NewGraphene builds a per-bank Graphene instance sized for the tolerated
// threshold trh (in activations).
func NewGraphene(trh float64) *Graphene {
	internal := trh / GrapheneInternalDivisor
	return NewGrapheneRaw(GrapheneEntries(trh), clm.EACT(internal*float64(clm.One)))
}

// NewGrapheneRaw builds a Graphene instance with an explicit entry count
// and fixed-point internal threshold; used by tests and the security
// analysis to probe off-nominal configurations.
func NewGrapheneRaw(entries int, threshold clm.EACT) *Graphene {
	if entries <= 0 {
		panic("trackers: graphene needs at least one entry")
	}
	if threshold == 0 {
		panic("trackers: graphene needs a positive threshold")
	}
	return &Graphene{threshold: threshold, slotTable: newSlotTable(entries, slotPolicy{})}
}

// Name implements Tracker.
func (g *Graphene) Name() string { return "graphene" }

// InDRAM implements Tracker.
func (g *Graphene) InDRAM() bool { return false }

// OnActivation implements Tracker using the Space-Saving update rule.
//
//impress:hotpath
func (g *Graphene) OnActivation(row int64, weight clm.EACT) []int64 {
	if weight == 0 {
		panic("trackers: zero-weight activation")
	}
	// A newcomer to a full table evicts the minimum entry and inherits its
	// count, which also becomes the spillover (Space-Saving overestimates,
	// which is safe — it can only cause extra mitigations, never missed
	// ones).
	slot, evicted := g.track(row, g.spillover)
	if evicted {
		g.spillover = g.slots[slot].count
	}
	if g.add(slot, weight) >= g.threshold {
		return g.mitigateSlot(slot)
	}
	return nil
}

// OnRFM implements Tracker (no-op: Graphene mitigates inline).
func (g *Graphene) OnRFM() []int64 { return nil }

// ResetWindow implements Tracker: the refresh sweep has restored all
// victims, so all counters clear.
func (g *Graphene) ResetWindow() {
	g.reset()
	g.spillover = 0
}

// String implements fmt.Stringer.
func (g *Graphene) String() string {
	return fmt.Sprintf("graphene(entries=%d, threshold=%.1f)", g.Entries(), g.threshold.Float())
}
