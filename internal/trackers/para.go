package trackers

import (
	"fmt"
	"math"

	"impress/internal/clm"
	"impress/internal/stats"
)

// PARA is the probabilistic memory-controller tracker of Kim et al.
// (ISCA'14): every activation is selected for mitigation with a small
// probability p, requiring no tracking state at all.
//
// Under ImPress-P the selection probability of an activation becomes
// p * EACT, so accesses that kept their row open longer are proportionally
// more likely to trigger a mitigation — this is the paper's Section VI-C
// "Impact on PARA" modification, implemented here by drawing a uniform
// fixed-point variate against p scaled by the activation weight.
type PARA struct {
	p   float64
	rng *stats.Rand
	out [1]int64 // OnActivation's result buffer

	mitigations uint64
}

// PARAReliabilityConstant is -ln(failure probability per attack attempt)
// used to derive p from the tolerated threshold for the paper's 0.1 FIT
// bank-failure target: p = C / TRH. Calibrated so TRH = 4K gives the
// paper's p = 1/184 (and T* = 2K gives 1/92, matching Appendix A).
const PARAReliabilityConstant = 4000.0 / 184.0

// PARAProbability returns the per-activation mitigation probability needed
// to tolerate trh at the paper's 0.1 FIT target.
func PARAProbability(trh float64) float64 {
	if trh <= 0 {
		panic("trackers: non-positive TRH")
	}
	return math.Min(1, PARAReliabilityConstant/trh)
}

// NewPARA builds a per-bank PARA instance tolerating trh, drawing
// randomness from rng (which the caller seeds deterministically).
func NewPARA(trh float64, rng *stats.Rand) *PARA {
	return &PARA{p: PARAProbability(trh), rng: rng}
}

// Name implements Tracker.
func (p *PARA) Name() string { return "para" }

// InDRAM implements Tracker.
func (p *PARA) InDRAM() bool { return false }

// OnActivation implements Tracker: select the row with probability
// p * weight (saturating at 1, as in the paper's Appendix B analysis).
func (p *PARA) OnActivation(row int64, weight clm.EACT) []int64 {
	if weight == 0 {
		panic("trackers: zero-weight activation")
	}
	prob := p.p * weight.Float()
	if p.rng.Bernoulli(prob) {
		p.mitigations++
		return mitigate(&p.out, row)
	}
	return nil
}

// OnRFM implements Tracker (no-op).
func (p *PARA) OnRFM() []int64 { return nil }

// ResetWindow implements Tracker (PARA is stateless).
func (p *PARA) ResetWindow() {}

// String implements fmt.Stringer.
func (p *PARA) String() string { return fmt.Sprintf("para(p=1/%.0f)", 1/p.p) }
