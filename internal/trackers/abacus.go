package trackers

import (
	"fmt"
	"math"

	"impress/internal/clm"
)

// ABACuS is the shared-counter tracker of Olgun et al. (USENIX
// Security'24): one counter table serves all banks of a rank, exploiting
// the observation that benign workloads activate the same row address in
// many banks while an attacker must split its activation budget to do
// so. Each counter tracks a row address' maximum activation count with a
// sibling-activation vector deduplicating per-bank increments.
//
// Per-bank model (simplifications documented in DESIGN.md §13): this
// repo's trackers are per-bank, so the rank-level table is modeled as
// its per-bank shard — ABACuSEntries divides the paper's counter budget
// by the channel's 64 banks — counting this bank's activations at full
// weight (the cross-bank SAV deduplication has nothing to deduplicate
// within one bank). Eviction is modeled as the plain counter replacement
// the paper describes — the newcomer replaces the lowest counter and
// starts from its own activation, with no Space-Saving spillover
// inheritance — which, unlike Graphene, can under-count a row that is
// repeatedly evicted. That eviction-thrash exposure is a real property
// of the shard model, and exactly the kind of margin the adversarial
// synthesis loop (internal/synth) exists to quantify; the attackzoo
// table reports what it costs.
type ABACuS struct {
	entries   int
	threshold clm.EACT // internal mitigation threshold, fixed point

	rows      map[int64]int
	slotRow   []int64
	slotCount []clm.EACT
	slotUsed  []bool
	out       [1]int64 // OnActivation's result buffer

	mitigations uint64
}

// ABACuSInternalDivisor converts the tolerated threshold into the
// internal mitigation threshold (trh/2: one counter-reset straddle).
const ABACuSInternalDivisor = 2

// abacusAnchor calibrates the entry count: the paper provisions 2720
// counters per rank at TRH = 1000; per bank of the 64-bank channel that
// is 42.5 entries, scaling inversely with the threshold.
const abacusAnchor = 2720 * 1000 / 64

// ABACuSEntries returns the per-bank shard of the counter table for the
// tolerated threshold trh.
func ABACuSEntries(trh float64) int {
	if trh <= 0 {
		panic("trackers: non-positive TRH")
	}
	n := int(math.Ceil(abacusAnchor / trh))
	if n < 1 {
		return 1
	}
	return n
}

// NewABACuS builds a per-bank ABACuS shard tuned to the tolerated
// threshold trh (in activations).
func NewABACuS(trh float64) *ABACuS {
	entries := ABACuSEntries(trh)
	internal := trh / ABACuSInternalDivisor
	return &ABACuS{
		entries:   entries,
		threshold: clm.EACT(math.Ceil(internal * float64(clm.One))),
		rows:      make(map[int64]int, entries),
		slotRow:   make([]int64, entries),
		slotCount: make([]clm.EACT, entries),
		slotUsed:  make([]bool, entries),
	}
}

// Name implements Tracker.
func (a *ABACuS) Name() string { return "abacus" }

// InDRAM implements Tracker.
func (a *ABACuS) InDRAM() bool { return false }

// Entries returns the table size.
func (a *ABACuS) Entries() int { return a.entries }

// Mitigations returns the number of mitigations issued so far.
func (a *ABACuS) Mitigations() uint64 { return a.mitigations }

// OnActivation implements Tracker.
func (a *ABACuS) OnActivation(row int64, weight clm.EACT) []int64 {
	if weight == 0 {
		panic("trackers: zero-weight activation")
	}
	slot, tracked := a.rows[row]
	if !tracked {
		if free := a.freeSlot(); free >= 0 {
			slot = free
		} else {
			// Replace the lowest counter; the newcomer starts from its own
			// activation (no inheritance — see the model note above).
			slot = a.minSlot()
			delete(a.rows, a.slotRow[slot])
		}
		a.slotUsed[slot] = true
		a.slotRow[slot] = row
		a.slotCount[slot] = 0
		a.rows[row] = slot
	}
	a.slotCount[slot] += weight
	if a.slotCount[slot] >= a.threshold {
		a.slotCount[slot] = 0
		a.mitigations++
		return mitigate(&a.out, row)
	}
	return nil
}

func (a *ABACuS) freeSlot() int {
	if len(a.rows) >= a.entries {
		return -1
	}
	for i, used := range a.slotUsed {
		if !used {
			return i
		}
	}
	return -1
}

func (a *ABACuS) minSlot() int {
	best := -1
	var bestCount clm.EACT
	for i := range a.slotCount {
		if !a.slotUsed[i] {
			continue
		}
		if best == -1 || a.slotCount[i] < bestCount {
			best = i
			bestCount = a.slotCount[i]
		}
	}
	if best < 0 {
		panic("trackers: minSlot on empty table")
	}
	return best
}

// Count returns the tracked fixed-point count for row (zero if
// untracked); exposed for tests.
func (a *ABACuS) Count(row int64) clm.EACT {
	if slot, ok := a.rows[row]; ok {
		return a.slotCount[slot]
	}
	return 0
}

// OnRFM implements Tracker (no-op: ABACuS mitigates inline).
func (a *ABACuS) OnRFM() []int64 { return nil }

// ResetWindow implements Tracker.
func (a *ABACuS) ResetWindow() {
	for i := range a.slotUsed {
		a.slotUsed[i] = false
		a.slotCount[i] = 0
	}
	clear(a.rows)
}

// String implements fmt.Stringer.
func (a *ABACuS) String() string {
	return fmt.Sprintf("abacus(entries=%d, threshold=%.1f)", a.entries, a.threshold.Float())
}
