// Package clm implements the paper's Unified Charge-Loss Model: a single
// relative-damage metric that combines Rowhammer (activation-driven) and
// Row-Press (row-open-time-driven) disturbance for arbitrary access
// patterns (Section IV of the paper).
//
// Charge loss is normalized so that one Rowhammer activation (a row opened
// for exactly tRAS and then precharged, one full tRC consumed) causes 1.0
// units of damage to a neighboring victim. A bit flips when a victim's
// cumulative damage reaches TRH units.
package clm

import (
	"fmt"
	"math"

	"impress/internal/dram"
)

// Alpha values used throughout the paper.
const (
	// AlphaShortDuration is the conservative linear-model slope fit to the
	// short-duration (tON <= 2 tRC) Row-Press characterization of Luo et
	// al. (Fig. 8 of the paper).
	AlphaShortDuration = 0.35
	// AlphaLongDuration covers all characterized devices from all three
	// vendors for attacks up to 9 tREFI (Fig. 7 of the paper).
	AlphaLongDuration = 0.48
	// AlphaDeviceIndependent removes all reliance on per-device behaviour:
	// Row-Press damage per unit time is assumed equal to Rowhammer damage
	// per unit time (the paper's observation 4: alpha is unlikely to
	// exceed 1).
	AlphaDeviceIndependent = 1.0
)

// Model is the Conservative Linear Model (CLM) of Equation 3:
//
//	TCL(tON) = 1 + alpha * (tON - tRAS) / tRC
//
// with the convention that an access with tON == tRAS degenerates to a pure
// Rowhammer activation (TCL = 1).
type Model struct {
	// Alpha is the relative charge leakage per tRC of row-open time,
	// normalized to Rowhammer's leakage per activation. Alpha = 1
	// reproduces Rowhammer's damage rate.
	Alpha float64
	// Timings supplies tRAS and tRC.
	Timings dram.Timings
}

// New returns a CLM with the given alpha over the paper's DDR5 timings.
func New(alpha float64) Model {
	return Model{Alpha: alpha, Timings: dram.DDR5()}
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	if !(m.Alpha >= 0) {
		return fmt.Errorf("clm: alpha %v is not a non-negative number", m.Alpha)
	}
	return m.Timings.Validate()
}

// AccessTCL returns the total charge loss inflicted on a neighbor by a
// single access that keeps its row open for tON (Equation 3). tON below
// tRAS is clamped to tRAS: a legal access cannot close earlier, and the
// activation itself always costs one full unit.
func (m Model) AccessTCL(tON dram.Tick) float64 {
	return m.Access().TCL(tON)
}

// AccessModel is the part of a Model that AccessTCL reads — alpha, tRAS
// and tRC — for per-access loops: its value receiver is three words,
// where calling AccessTCL copies the whole dram.Timings.
type AccessModel struct {
	alpha     float64
	tRAS, tRC dram.Tick
}

// Access returns m's AccessModel.
func (m Model) Access() AccessModel {
	return AccessModel{alpha: m.Alpha, tRAS: m.Timings.TRAS, tRC: m.Timings.TRC}
}

// TCL is Model.AccessTCL, bit for bit.
func (a AccessModel) TCL(tON dram.Tick) float64 {
	if tON < a.tRAS {
		tON = a.tRAS
	}
	extra := float64(tON-a.tRAS) / float64(a.tRC)
	return 1 + a.alpha*extra
}

// RowhammerTCL returns the charge loss after k pure Rowhammer activations
// (Equation 1): exactly k units, independent of alpha.
func RowhammerTCL(k int64) float64 { return float64(k) }

// Access describes one element of an arbitrary interleaved RH/RP pattern:
// an activation that keeps its row open for TON before precharging.
type Access struct {
	TON dram.Tick
}

// PatternTCL returns the cumulative charge loss of an arbitrary pattern of
// accesses (the unified model's headline capability: any interleaving of
// Rowhammer and Row-Press collapses to one number).
func (m Model) PatternTCL(pattern []Access) float64 {
	total := 0.0
	for _, a := range pattern {
		total += m.AccessTCL(a.TON)
	}
	return total
}

// PatternTime returns the total wall-clock time consumed by a pattern:
// each access occupies tON + tPRE on the bank.
func (m Model) PatternTime(pattern []Access) dram.Tick {
	var total dram.Tick
	for _, a := range pattern {
		tON := a.TON
		if tON < m.Timings.TRAS {
			tON = m.Timings.TRAS
		}
		total += tON + m.Timings.TPRE
	}
	return total
}

// DamageRate returns the charge loss per tRC of wall-clock time for a
// repeating access with the given tON. Rowhammer (tON = tRAS) has rate 1
// by construction; the paper's observation 1 is that this rate is below 1
// for all Row-Press patterns whenever alpha < 1, so pure Rowhammer is the
// fastest attack.
func (m Model) DamageRate(tON dram.Tick) float64 {
	if tON < m.Timings.TRAS {
		tON = m.Timings.TRAS
	}
	timePerRound := float64(tON+m.Timings.TPRE) / float64(m.Timings.TRC)
	return m.AccessTCL(tON) / timePerRound
}

// RoundsToFlip returns how many repetitions of an access with the given tON
// are needed to accumulate trh units of damage (the "number of activations
// for Row-Press to flip a bit", T* in the paper's terminology).
func (m Model) RoundsToFlip(tON dram.Tick, trh float64) int64 {
	perRound := m.AccessTCL(tON)
	return int64(math.Ceil(trh / perRound))
}

// ImpressNEffectiveThreshold returns Equation 5: the effective threshold of
// ImPress-N relative to TRH, given the worst-case decoy pattern that keeps
// a row open for tRC+tRAS while registering only one tracked activation:
//
//	T* = TRH / (1 + alpha)
func (m Model) ImpressNEffectiveThreshold(trh float64) float64 {
	return trh / (1 + m.Alpha)
}

// EACTFracBitsExact is the number of fractional bits at which EACT is
// represented exactly for the paper's configuration: tRC is 128 DRAM
// cycles, so dividing a cycle count by tRC is a right shift by 7 and seven
// fractional bits lose nothing.
const EACTFracBitsExact = 7

// FracBitsEffectiveThreshold returns the relative effective threshold of
// ImPress-P when the tracker stores only b fractional EACT bits (Fig. 12).
// With b >= 7 the representation is exact (T* = TRH). With fewer bits,
// truncation can under-count each access by up to 2^-b, so
//
//	T*/TRH = 1 / (1 + 2^-b)
//
// b = 0 degenerates to ImPress-N with alpha = 1 (T* = TRH/2); b = 6 gives
// 0.985, b = 5 gives 0.97, b = 4 gives 0.94, matching the paper.
func FracBitsEffectiveThreshold(b int) float64 {
	if b < 0 {
		panic("clm: negative fractional bits")
	}
	if b >= EACTFracBitsExact {
		return 1
	}
	return 1 / (1 + math.Pow(2, -float64(b)))
}
