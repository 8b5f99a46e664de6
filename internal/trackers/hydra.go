package trackers

import (
	"fmt"
	"math"

	"impress/internal/clm"
)

// Hydra is the hybrid tracker of Qureshi et al. (ISCA'21): a small
// SRAM Group Count Table (GCT) shares one counter across a group of
// rows, and only when a group's aggregate count crosses the group
// threshold does the tracker fall back to exact per-row counters (the
// Row Count Table, which lives in DRAM and is filtered by a small
// cache). Aggregate-first counting keeps the SRAM footprint tiny while
// never under-counting: a row's true count is bounded by its group's
// counter, and a freshly installed per-row counter starts at the group
// threshold, inheriting the worst case.
//
// Per-bank model (simplifications documented in DESIGN.md §13): the GCT
// is modeled per bank with power-of-two row-hash groups; the RCT is
// modeled as an unbounded exact map (it is per-row in DRAM, so capacity
// is not a security parameter); the row-count cache is a performance
// structure and does not affect which rows get mitigated, so it appears
// only in the storage model. Mitigations are issued inline by the
// memory controller (InDRAM = false), at the internal threshold trh/2
// with per-row counters resetting to zero after each mitigation.
type Hydra struct {
	groups       int
	groupMask    int64
	groupSpill   clm.EACT // group counter value that triggers per-row tracking
	rowThreshold clm.EACT // per-row mitigation threshold

	gct  []clm.EACT
	rows map[int64]clm.EACT // exact counters for rows of spilled groups
	out  [1]int64           // OnActivation's result buffer

	mitigations uint64
}

// HydraGroups is the per-bank GCT size (power of two so the group hash
// is a mask). The paper provisions 32K groups per rank; spread over the
// 64 banks of the modeled channel that is 512 groups per bank.
const HydraGroups = 512

// HydraInternalDivisor converts the tolerated threshold into Hydra's
// per-row mitigation threshold (trh/2: the aggressor can straddle one
// counter reset, hence the 2x guard band); the group-spill threshold is
// half of that again, matching the paper's T_gct = T_hydra/2.
const HydraInternalDivisor = 2

// NewHydra builds a per-bank Hydra instance tuned to the tolerated
// threshold trh (in activations).
func NewHydra(trh float64) *Hydra {
	if trh <= 0 {
		panic("trackers: non-positive TRH")
	}
	internal := trh / HydraInternalDivisor
	return &Hydra{
		groups:       HydraGroups,
		groupMask:    HydraGroups - 1,
		groupSpill:   clm.EACT(math.Ceil(internal / 2 * float64(clm.One))),
		rowThreshold: clm.EACT(math.Ceil(internal * float64(clm.One))),
		gct:          make([]clm.EACT, HydraGroups),
		rows:         make(map[int64]clm.EACT),
	}
}

// Name implements Tracker.
func (h *Hydra) Name() string { return "hydra" }

// InDRAM implements Tracker.
func (h *Hydra) InDRAM() bool { return false }

func (h *Hydra) group(row int64) int64 {
	return ((row % int64(h.groups)) + int64(h.groups)) & h.groupMask
}

// OnActivation implements Tracker: aggregate counting until the group
// spills, exact per-row counting afterwards.
func (h *Hydra) OnActivation(row int64, weight clm.EACT) []int64 {
	if weight == 0 {
		panic("trackers: zero-weight activation")
	}
	g := h.group(row)
	if h.gct[g] < h.groupSpill {
		h.gct[g] += weight
		if h.gct[g] >= h.groupSpill {
			// The group spills: freeze the counter at the spill value (the
			// frozen value doubles as the spilled marker) and charge the
			// spilling row the worst-case inherited count.
			h.gct[g] = h.groupSpill
			h.rows[row] = h.groupSpill
		}
		return nil
	}
	c, tracked := h.rows[row]
	if !tracked {
		// First sighting after the spill: inherit the group threshold,
		// the upper bound on what the row may have contributed.
		c = h.groupSpill
	}
	c += weight
	if c >= h.rowThreshold {
		h.rows[row] = 0
		h.mitigations++
		return mitigate(&h.out, row)
	}
	h.rows[row] = c
	return nil
}

// OnRFM implements Tracker (no-op: Hydra mitigates inline).
func (h *Hydra) OnRFM() []int64 { return nil }

// ResetWindow implements Tracker.
func (h *Hydra) ResetWindow() {
	for i := range h.gct {
		h.gct[i] = 0
	}
	clear(h.rows)
}

// String implements fmt.Stringer.
func (h *Hydra) String() string {
	return fmt.Sprintf("hydra(groups=%d, threshold=%.1f)", h.groups, h.rowThreshold.Float())
}
