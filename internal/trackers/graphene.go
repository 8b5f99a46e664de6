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
	entries   int
	threshold clm.EACT // internal mitigation threshold, fixed point

	rows      map[int64]int // row -> slot index
	slotRow   []int64
	slotCount []clm.EACT
	slotUsed  []bool
	spillover clm.EACT
	out       [1]int64 // OnActivation's result buffer

	mitigations uint64
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
	entries := GrapheneEntries(trh)
	internal := trh / GrapheneInternalDivisor
	return newGrapheneRaw(entries, clm.EACT(internal*float64(clm.One)))
}

// NewGrapheneRaw builds a Graphene instance with an explicit entry count
// and fixed-point internal threshold; used by tests and the security
// analysis to probe off-nominal configurations.
func NewGrapheneRaw(entries int, threshold clm.EACT) *Graphene {
	return newGrapheneRaw(entries, threshold)
}

func newGrapheneRaw(entries int, threshold clm.EACT) *Graphene {
	if entries <= 0 {
		panic("trackers: graphene needs at least one entry")
	}
	if threshold == 0 {
		panic("trackers: graphene needs a positive threshold")
	}
	g := &Graphene{
		entries:   entries,
		threshold: threshold,
		rows:      make(map[int64]int, entries),
		slotRow:   make([]int64, entries),
		slotCount: make([]clm.EACT, entries),
		slotUsed:  make([]bool, entries),
	}
	return g
}

// Name implements Tracker.
func (g *Graphene) Name() string { return "graphene" }

// InDRAM implements Tracker.
func (g *Graphene) InDRAM() bool { return false }

// Entries returns the table size.
func (g *Graphene) Entries() int { return g.entries }

// Threshold returns the internal fixed-point mitigation threshold.
func (g *Graphene) Threshold() clm.EACT { return g.threshold }

// Mitigations returns the number of mitigations issued so far.
func (g *Graphene) Mitigations() uint64 { return g.mitigations }

// OnActivation implements Tracker using the Space-Saving update rule.
func (g *Graphene) OnActivation(row int64, weight clm.EACT) []int64 {
	if weight == 0 {
		panic("trackers: zero-weight activation")
	}
	slot, tracked := g.rows[row]
	if !tracked {
		if free := g.freeSlot(); free >= 0 {
			slot = free
			g.slotUsed[slot] = true
			g.slotRow[slot] = row
			g.slotCount[slot] = g.spillover
			g.rows[row] = slot
		} else {
			// Table full: evict the minimum entry; the newcomer inherits
			// its count (Space-Saving overestimates, which is safe — it
			// can only cause extra mitigations, never missed ones).
			slot = g.minSlot()
			g.spillover = g.slotCount[slot]
			delete(g.rows, g.slotRow[slot])
			g.slotRow[slot] = row
			g.rows[row] = slot
		}
	}
	g.slotCount[slot] += weight
	if g.slotCount[slot] >= g.threshold {
		g.slotCount[slot] = 0
		g.mitigations++
		return mitigate(&g.out, row)
	}
	return nil
}

func (g *Graphene) freeSlot() int {
	if len(g.rows) >= g.entries {
		return -1
	}
	for i, used := range g.slotUsed {
		if !used {
			return i
		}
	}
	return -1
}

func (g *Graphene) minSlot() int {
	best := -1
	var bestCount clm.EACT
	for i := range g.slotCount {
		if !g.slotUsed[i] {
			continue
		}
		if best == -1 || g.slotCount[i] < bestCount {
			best = i
			bestCount = g.slotCount[i]
		}
	}
	if best < 0 {
		panic("trackers: minSlot on empty table")
	}
	return best
}

// Count returns the tracked fixed-point count for row (zero if untracked);
// exposed for tests and the security analysis.
func (g *Graphene) Count(row int64) clm.EACT {
	if slot, ok := g.rows[row]; ok {
		return g.slotCount[slot]
	}
	return 0
}

// OnRFM implements Tracker (no-op: Graphene mitigates inline).
func (g *Graphene) OnRFM() []int64 { return nil }

// ResetWindow implements Tracker: the refresh sweep has restored all
// victims, so all counters clear.
func (g *Graphene) ResetWindow() {
	for i := range g.slotUsed {
		g.slotUsed[i] = false
		g.slotCount[i] = 0
	}
	clear(g.rows)
	g.spillover = 0
}

// String implements fmt.Stringer.
func (g *Graphene) String() string {
	return fmt.Sprintf("graphene(entries=%d, threshold=%.1f)", g.entries, g.threshold.Float())
}
