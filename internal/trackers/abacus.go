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
	threshold clm.EACT // internal mitigation threshold, fixed point

	slotTable
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
	internal := trh / ABACuSInternalDivisor
	return &ABACuS{
		threshold: clm.EACT(math.Ceil(internal * float64(clm.One))),
		slotTable: newSlotTable(ABACuSEntries(trh), slotPolicy{restart: true}),
	}
}

// Name implements Tracker.
func (a *ABACuS) Name() string { return "abacus" }

// InDRAM implements Tracker.
func (a *ABACuS) InDRAM() bool { return false }

// OnActivation implements Tracker.
//
//impress:hotpath
func (a *ABACuS) OnActivation(row int64, weight clm.EACT) []int64 {
	if weight == 0 {
		panic("trackers: zero-weight activation")
	}
	// A newcomer to a full table replaces the lowest counter and starts
	// from its own activation (no inheritance — see the model note above).
	slot, _ := a.track(row, 0)
	if a.add(slot, weight) >= a.threshold {
		return a.mitigateSlot(slot)
	}
	return nil
}

// OnRFM implements Tracker (no-op: ABACuS mitigates inline).
func (a *ABACuS) OnRFM() []int64 { return nil }

// ResetWindow implements Tracker.
func (a *ABACuS) ResetWindow() { a.reset() }

// String implements fmt.Stringer.
func (a *ABACuS) String() string {
	return fmt.Sprintf("abacus(entries=%d, threshold=%.1f)", a.Entries(), a.threshold.Float())
}
