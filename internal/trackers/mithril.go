package trackers

import (
	"fmt"
	"math"

	"impress/internal/clm"
)

// Mithril is the in-DRAM counter tracker of Kim et al. (HPCA'22): a
// Counter-based Summary (a Misra-Gries variant) maintained inside the DRAM
// chip. The memory controller issues an RFM command every RFMTH
// activations per bank; under each RFM, Mithril mitigates the row with the
// highest counter and that row's counter drops to the table minimum so it
// must re-earn the next mitigation.
type Mithril struct {
	rfmth int

	slotTable
}

// MithrilEntries returns the per-bank entry count required to tolerate trh
// at the given RFM threshold, per Theorem 1 of the Mithril paper. The
// closed form is calibrated against the three operating points Section
// VI-C and Appendix A report for RFMTH = 80: 383 entries at TRH = 4K,
// ~615 at T* = 2963 (alpha = 0.35) and 1545 at T* = 2K (alpha = 1). The
// hyperbolic shape (entries -> infinity as TRH approaches the
// RFM-rate-limited floor) is intrinsic to the theorem.
func MithrilEntries(trh float64, rfmth int) int {
	if trh <= 0 || rfmth <= 0 {
		panic("trackers: invalid Mithril parameters")
	}
	// Floor: with one mitigation per RFMTH activations, thresholds at or
	// below floor*RFMTH are untrackable regardless of entry count.
	floor := mithrilFloorPerRFMTH * float64(rfmth)
	if trh <= floor {
		panic(fmt.Sprintf("trackers: TRH %.0f not tolerable at RFMTH %d (floor %.0f)", trh, rfmth, floor))
	}
	k := mithrilCalibrationK * float64(rfmth) / 80.0
	return int(math.Ceil(k / (trh - floor)))
}

const (
	// mithrilCalibrationK and mithrilFloorPerRFMTH fit the paper's three
	// (TRH, entries) anchors at RFMTH = 80 (see MithrilEntries).
	mithrilCalibrationK  = 1018397.0
	mithrilFloorPerRFMTH = 1341.0 / 80.0
)

// NewMithril builds a per-bank Mithril instance tolerating trh with the
// given RFM threshold.
func NewMithril(trh float64, rfmth int) *Mithril {
	return NewMithrilRaw(MithrilEntries(trh, rfmth), rfmth)
}

// NewMithrilRaw builds a Mithril instance with an explicit entry count.
func NewMithrilRaw(entries, rfmth int) *Mithril {
	if entries <= 0 || rfmth <= 0 {
		panic("trackers: invalid Mithril configuration")
	}
	return &Mithril{rfmth: rfmth, slotTable: newSlotTable(entries, slotPolicy{maxHeap: true})}
}

// Name implements Tracker.
func (m *Mithril) Name() string { return "mithril" }

// InDRAM implements Tracker.
func (m *Mithril) InDRAM() bool { return true }

// RFMTH returns the RFM threshold this instance was sized for.
func (m *Mithril) RFMTH() int { return m.rfmth }

// OnActivation implements Tracker with the Space-Saving update rule;
// in-DRAM trackers never mitigate inline, so it always returns nil.
//
//impress:hotpath
func (m *Mithril) OnActivation(row int64, weight clm.EACT) []int64 {
	if weight == 0 {
		panic("trackers: zero-weight activation")
	}
	// Space-Saving: a newcomer to a full table inherits the evicted
	// minimum count.
	slot, _ := m.track(row, 0)
	m.add(slot, weight)
	return nil
}

// OnRFM implements Tracker: mitigate the highest-count row. The mitigation
// refreshes that row's victims, clearing their accumulated damage, so the
// row's counter resets to zero and it must re-earn the next mitigation.
//
//impress:hotpath
func (m *Mithril) OnRFM() []int64 {
	// The max-heap's root: the highest count, lowest slot first.
	top := m.heaps[byMax]
	if len(top) == 0 || m.slots[top[0]].count == 0 {
		return nil
	}
	return m.mitigateSlot(int(top[0]))
}

// ResetWindow implements Tracker.
func (m *Mithril) ResetWindow() { m.reset() }

// String implements fmt.Stringer.
func (m *Mithril) String() string {
	return fmt.Sprintf("mithril(entries=%d, rfmth=%d)", m.Entries(), m.rfmth)
}
