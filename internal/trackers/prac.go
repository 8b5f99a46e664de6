package trackers

import (
	"fmt"

	"impress/internal/clm"
)

// PRAC implements Per-Row Activation Counting, the in-DRAM mitigation
// JEDEC added to DDR5 (JESD79-5C) and that Section VI-F of the paper
// identifies as the scalable path for low Rowhammer thresholds: the DRAM
// array stores one activation counter per row, and when any counter
// crosses the alert threshold the device signals back-off (ALERT) and
// mitigates the row's victims under the following RFM/REF window.
//
// The paper's extension claim — "ImPress can be used with PRAC by having
// 7-bits of the counter for storing the fractional EACT" — is realized
// here by accumulating fixed-point clm.EACT weights per row: with
// ImPress-P feeding EACTs, PRAC tolerates Row-Press at its full
// provisioned threshold; with integer feeding (No-RP) it is exactly as
// vulnerable as any other counter scheme.
//
// The per-row counter array is modeled sparsely (a map): real hardware
// stores the counters in the DRAM rows themselves, so the tracker has no
// SRAM entry budget and no eviction behaviour to model.
type PRAC struct {
	alert clm.EACT // alert threshold, fixed point

	counts map[int64]clm.EACT
	// alerted rows await mitigation at the next RFM/REF opportunity.
	alerted []int64

	mitigations uint64
}

// PRACAlertDivisor converts the tolerated Rowhammer threshold into the
// per-row alert threshold. PRAC mitigates the row's victims promptly after
// ALERT, but the threshold must absorb the back-off service delay and the
// damage accumulated before the reset of a freshly refreshed victim; the
// standard provisioning uses half the threshold.
const PRACAlertDivisor = 2

// NewPRAC builds a PRAC instance tolerating trh.
func NewPRAC(trh float64) *PRAC {
	if trh <= 0 {
		panic("trackers: non-positive TRH")
	}
	alert := clm.EACT(trh / PRACAlertDivisor * float64(clm.One))
	if alert == 0 {
		panic("trackers: PRAC alert threshold underflow")
	}
	return &PRAC{alert: alert, counts: make(map[int64]clm.EACT)}
}

// Name implements Tracker.
func (p *PRAC) Name() string { return "prac" }

// InDRAM implements Tracker.
func (p *PRAC) InDRAM() bool { return true }

// OnActivation implements Tracker: increment the row's in-array counter by
// the activation's weight; queue an ALERT when it crosses the threshold.
func (p *PRAC) OnActivation(row int64, weight clm.EACT) []int64 {
	if weight == 0 {
		panic("trackers: zero-weight activation")
	}
	before := p.counts[row]
	after := before + weight
	p.counts[row] = after
	if before < p.alert && after >= p.alert {
		p.alerted = append(p.alerted, row)
	}
	return nil
}

// OnRFM implements Tracker: service all pending alerts (the back-off
// protocol gives the device time to refresh victims); each serviced row's
// counter resets.
func (p *PRAC) OnRFM() []int64 {
	if len(p.alerted) == 0 {
		return nil
	}
	out := p.alerted
	p.alerted = out[:0] // reused: out is valid until the next call
	for _, row := range out {
		p.counts[row] = 0
		p.mitigations++
	}
	return out
}

// ResetWindow implements Tracker: the refresh sweep restores every victim,
// so all per-row counters clear (real PRAC resets counters as rows are
// refreshed; the window model batches that).
func (p *PRAC) ResetWindow() {
	clear(p.counts)
	p.alerted = p.alerted[:0]
}

// PRACStorageBitsPerRow returns the in-array counter width per row: the
// integer bits needed for the alert threshold plus the fractional EACT
// bits (0 for plain PRAC, 7 under ImPress-P — the paper's Section VI-F
// composition).
func PRACStorageBitsPerRow(trh float64, fracBits int) int {
	if trh <= 0 {
		panic("trackers: non-positive TRH")
	}
	intBits := 0
	for v := uint64(trh / PRACAlertDivisor); v > 0; v >>= 1 {
		intBits++
	}
	return intBits + fracBits
}

// String implements fmt.Stringer.
func (p *PRAC) String() string {
	return fmt.Sprintf("prac(alert=%.0f)", p.alert.Float())
}
