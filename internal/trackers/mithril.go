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
	entries int
	rfmth   int

	rows      map[int64]int
	slotRow   []int64
	slotCount []clm.EACT
	slotUsed  []bool
	out       [1]int64 // OnRFM's result buffer

	mitigations uint64
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
	return &Mithril{
		entries:   entries,
		rfmth:     rfmth,
		rows:      make(map[int64]int, entries),
		slotRow:   make([]int64, entries),
		slotCount: make([]clm.EACT, entries),
		slotUsed:  make([]bool, entries),
	}
}

// Name implements Tracker.
func (m *Mithril) Name() string { return "mithril" }

// InDRAM implements Tracker.
func (m *Mithril) InDRAM() bool { return true }

// Entries returns the table size.
func (m *Mithril) Entries() int { return m.entries }

// RFMTH returns the RFM threshold this instance was sized for.
func (m *Mithril) RFMTH() int { return m.rfmth }

// Mitigations returns the number of mitigations performed under RFM.
func (m *Mithril) Mitigations() uint64 { return m.mitigations }

// OnActivation implements Tracker with the Space-Saving update rule;
// in-DRAM trackers never mitigate inline, so it always returns nil.
func (m *Mithril) OnActivation(row int64, weight clm.EACT) []int64 {
	if weight == 0 {
		panic("trackers: zero-weight activation")
	}
	slot, tracked := m.rows[row]
	if !tracked {
		if free := m.freeSlot(); free >= 0 {
			slot = free
			m.slotUsed[slot] = true
			m.slotRow[slot] = row
			m.slotCount[slot] = 0
			m.rows[row] = slot
		} else {
			slot = m.minSlot()
			delete(m.rows, m.slotRow[slot])
			m.slotRow[slot] = row
			m.rows[row] = slot
			// Space-Saving: inherit the evicted minimum count.
		}
	}
	m.slotCount[slot] += weight
	return nil
}

// OnRFM implements Tracker: mitigate the highest-count row. The mitigation
// refreshes that row's victims, clearing their accumulated damage, so the
// row's counter resets to zero and it must re-earn the next mitigation.
func (m *Mithril) OnRFM() []int64 {
	best := -1
	var bestCount clm.EACT
	for i := range m.slotCount {
		if !m.slotUsed[i] {
			continue
		}
		if best == -1 || m.slotCount[i] > bestCount {
			best = i
			bestCount = m.slotCount[i]
		}
	}
	if best < 0 || bestCount == 0 {
		return nil
	}
	m.slotCount[best] = 0
	m.mitigations++
	return mitigate(&m.out, m.slotRow[best])
}

func (m *Mithril) freeSlot() int {
	if len(m.rows) >= m.entries {
		return -1
	}
	for i, used := range m.slotUsed {
		if !used {
			return i
		}
	}
	return -1
}

func (m *Mithril) minSlot() int {
	best := -1
	var bestCount clm.EACT
	for i := range m.slotCount {
		if !m.slotUsed[i] {
			continue
		}
		if best == -1 || m.slotCount[i] < bestCount {
			best = i
			bestCount = m.slotCount[i]
		}
	}
	if best < 0 {
		panic("trackers: minSlot on empty table")
	}
	return best
}

func (m *Mithril) minCount() clm.EACT {
	return m.slotCount[m.minSlot()]
}

// Count returns the tracked fixed-point count for row (zero if untracked).
func (m *Mithril) Count(row int64) clm.EACT {
	if slot, ok := m.rows[row]; ok {
		return m.slotCount[slot]
	}
	return 0
}

// ResetWindow implements Tracker.
func (m *Mithril) ResetWindow() {
	for i := range m.slotUsed {
		m.slotUsed[i] = false
		m.slotCount[i] = 0
	}
	clear(m.rows)
}

// String implements fmt.Stringer.
func (m *Mithril) String() string {
	return fmt.Sprintf("mithril(entries=%d, rfmth=%d)", m.entries, m.rfmth)
}
