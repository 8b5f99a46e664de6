package trackers

import (
	"fmt"

	"impress/internal/clm"
	"impress/internal/stats"
)

// VendorTRR models the legacy in-DRAM Target Row Refresh samplers that
// TRRespass (Frigo et al., S&P'20) showed to be insecure, and that
// Section VII explicitly excludes from ImPress's scope ("we do not
// consider in-DRAM designs of TRR ... as these can be broken with simple
// patterns"). It is included here as the negative baseline: a
// sampler with a handful of entries that tracks only the most recently
// sampled aggressors is defeated by many-sided patterns regardless of
// Row-Press, which motivates the secure trackers the paper builds on.
//
// The model: a small table of sampled rows; each activation is sampled
// with a fixed probability into a random slot; at every REF/RFM
// opportunity the sampler refreshes the victims of all currently sampled
// rows. Many-sided patterns with more aggressors than slots win by
// crowding the sampler.
type VendorTRR struct {
	slots      []int64
	slotValid  []bool
	sampleProb float64
	rng        *stats.Rand
	out        []int64 // OnRFM's result buffer

	mitigations uint64
}

// NewVendorTRR builds a TRR sampler with the given number of sample slots
// (real devices use ~1-4) and per-ACT sampling probability.
func NewVendorTRR(slots int, sampleProb float64, rng *stats.Rand) *VendorTRR {
	if slots <= 0 || sampleProb <= 0 || sampleProb > 1 {
		panic("trackers: invalid TRR configuration")
	}
	return &VendorTRR{
		slots:      make([]int64, slots),
		slotValid:  make([]bool, slots),
		sampleProb: sampleProb,
		rng:        rng,
	}
}

// Name implements Tracker.
func (v *VendorTRR) Name() string { return "vendor-trr" }

// InDRAM implements Tracker.
func (v *VendorTRR) InDRAM() bool { return true }

// Mitigations returns the mitigation count.
func (v *VendorTRR) Mitigations() uint64 { return v.mitigations }

// OnActivation implements Tracker: sample the row with fixed probability
// into a random slot (evicting whatever was there — the crowding weakness
// TRRespass exploits).
func (v *VendorTRR) OnActivation(row int64, weight clm.EACT) []int64 {
	if weight == 0 {
		panic("trackers: zero-weight activation")
	}
	if v.rng.Bernoulli(v.sampleProb) {
		slot := v.rng.Intn(len(v.slots))
		v.slots[slot] = row
		v.slotValid[slot] = true
	}
	return nil
}

// OnRFM implements Tracker: refresh the victims of every sampled row.
func (v *VendorTRR) OnRFM() []int64 {
	out := v.out[:0]
	for i := range v.slots {
		if v.slotValid[i] {
			out = append(out, v.slots[i])
			v.slotValid[i] = false
			v.mitigations++
		}
	}
	v.out = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// ResetWindow implements Tracker.
func (v *VendorTRR) ResetWindow() {
	for i := range v.slotValid {
		v.slotValid[i] = false
	}
}

// String implements fmt.Stringer.
func (v *VendorTRR) String() string {
	return fmt.Sprintf("vendor-trr(slots=%d, p=%.3f)", len(v.slots), v.sampleProb)
}
