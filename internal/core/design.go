// Package core implements the paper's primary contribution: the Row-Press
// defense designs. It provides
//
//   - ImPress-N (Section V): time is divided into tRC windows; a row open
//     for a full window is treated as having been activated (implemented
//     with the paper's Timer + Open-Row-Address register pair);
//   - ImPress-P (Section VI): the row-open time of every access is
//     measured and converted into a fractional Equivalent Activation
//     Count, which the tracker consumes directly;
//   - ExPress (the prior-work baseline, Section II-E): the memory
//     controller limits row-open time to tMRO and the tracker is retuned
//     to the reduced threshold T*;
//   - the No-RP baseline (a plain Rowhammer tracker, vulnerable to
//     Row-Press).
//
// A Design is pure configuration; per-bank event generation is done by
// BankPolicy instances created from it. The policies are deliberately
// tracker-agnostic: they translate DRAM activity into weighted activation
// events (clm.EACT) and any trackers.Tracker consumes those events.
package core

import (
	"fmt"
	"math"

	"impress/internal/clm"
	"impress/internal/dram"
	"impress/internal/errs"
)

// Kind enumerates the Row-Press handling designs.
type Kind int

const (
	// NoRP is the unprotected-against-Row-Press baseline: a Rowhammer
	// tracker tuned to TRH, fed one unit per ACT.
	NoRP Kind = iota
	// ExPress limits row-open time to tMRO at the memory controller and
	// retunes the tracker to the reduced threshold T* (Luo et al.).
	ExPress
	// ImpressN treats a row open for a full tRC window as an activation;
	// the tracker is retuned to T* = TRH/(1+alpha) to absorb the sub-tRC
	// Row-Press it cannot see.
	ImpressN
	// ImpressP measures tON precisely and feeds fractional EACT weights;
	// the tracker keeps the full TRH.
	ImpressP
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case NoRP:
		return "no-rp"
	case ExPress:
		return "express"
	case ImpressN:
		return "impress-n"
	case ImpressP:
		return "impress-p"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Design is a fully specified Row-Press defense configuration.
type Design struct {
	Kind    Kind
	Timings dram.Timings

	// Alpha is the charge-leakage slope assumed when retuning thresholds
	// (ExPress and ImPress-N). The paper evaluates 0.35 (device data) and
	// 1.0 (device-independent). Ignored by NoRP and ImPress-P (which is
	// implicitly designed for alpha = 1 at no cost).
	Alpha float64

	// TMRO is ExPress's maximum row-open time. Zero means "the paper's
	// comparison default" (tRAS + tRC, so ExPress and ImPress-N target
	// the same T*). Ignored by other designs.
	TMRO dram.Tick

	// FracBits is ImPress-P's fractional EACT precision (default
	// clm.FracBits = 7, which is exact). Ignored by other designs.
	FracBits int

	// EmpiricalThreshold makes ExPress retune its tracker with the
	// characterized T*(tMRO) curve of Luo et al. (Fig. 4) instead of the
	// conservative linear model at Alpha. The paper's Fig. 5 tMRO sweep
	// uses the characterized curve; the Fig. 13/16 comparisons use the
	// CLM at alpha in {0.35, 1}. ExPress only.
	EmpiricalThreshold bool
}

// NewDesign returns a Design of the given kind with the paper's default
// parameters over DDR5 timings.
func NewDesign(kind Kind) Design {
	d := Design{
		Kind:     kind,
		Timings:  dram.DDR5(),
		Alpha:    clm.AlphaDeviceIndependent,
		FracBits: clm.FracBits,
	}
	if kind == ExPress {
		d.TMRO = d.Timings.TRAS + d.Timings.TRC
	}
	return d
}

// WithAlpha returns a copy of d with the given alpha.
func (d Design) WithAlpha(alpha float64) Design {
	d.Alpha = alpha
	return d
}

// WithTMRO returns a copy of d with the given tMRO (ExPress only).
func (d Design) WithTMRO(tMRO dram.Tick) Design {
	d.TMRO = tMRO
	return d
}

// WithEmpiricalThreshold returns a copy of d that retunes ExPress with the
// characterized T*(tMRO) curve instead of the CLM.
func (d Design) WithEmpiricalThreshold() Design {
	d.EmpiricalThreshold = true
	return d
}

// WithFracBits returns a copy of d with the given ImPress-P precision.
func (d Design) WithFracBits(b int) Design {
	d.FracBits = b
	return d
}

// Validate checks the design parameters. A non-finite alpha, which no
// design can use and no result-store key can encode, is rejected for
// every kind with an error wrapping errs.ErrBadSpec.
func (d Design) Validate() error {
	if math.IsNaN(d.Alpha) || math.IsInf(d.Alpha, 0) {
		return fmt.Errorf("core: %w: non-finite alpha %v", errs.ErrBadSpec, d.Alpha)
	}
	if err := d.Timings.Validate(); err != nil {
		return err
	}
	switch d.Kind {
	case NoRP, ImpressP:
	case ExPress:
		if d.TMRO < d.Timings.TRAS {
			return fmt.Errorf("core: ExPress tMRO %d below tRAS %d", d.TMRO, d.Timings.TRAS)
		}
		if d.Alpha <= 0 {
			return fmt.Errorf("core: ExPress needs positive alpha")
		}
	case ImpressN:
		if d.Alpha <= 0 {
			return fmt.Errorf("core: ImPress-N needs positive alpha")
		}
	default:
		return fmt.Errorf("core: unknown design kind %d", d.Kind)
	}
	if d.Kind == ImpressP && (d.FracBits < 0 || d.FracBits > clm.FracBits) {
		return fmt.Errorf("core: ImPress-P fractional bits %d out of range", d.FracBits)
	}
	return nil
}

// ParseDesign builds a design from its CLI name ("no-rp", "express",
// "impress-n", "impress-p") with the shared optional parameters: alpha
// retunes express/impress-n, tmroNs (> 0) overrides the ExPress tMRO in
// nanoseconds, and fracBits sets ImPress-P's fractional EACT precision.
// Parameters that do not apply to the named design are ignored, matching
// the CLI flag semantics of cmd/impress-sim and cmd/impress-trace.
func ParseDesign(name string, alpha float64, tmroNs int64, fracBits int) (Design, error) {
	var d Design
	switch name {
	case "no-rp":
		d = NewDesign(NoRP)
	case "express":
		d = NewDesign(ExPress).WithAlpha(alpha)
		if tmroNs > 0 {
			d = d.WithTMRO(dram.Ns(tmroNs))
		}
	case "impress-n":
		d = NewDesign(ImpressN).WithAlpha(alpha)
	case "impress-p":
		d = NewDesign(ImpressP).WithFracBits(fracBits)
	default:
		return d, fmt.Errorf("core: unknown design %q (want no-rp, express, impress-n or impress-p)", name)
	}
	return d, d.Validate()
}

// RowOpenLimit returns the forced row-close time the memory controller
// must enforce: tMRO for ExPress, the DDR5 tONMax otherwise (no
// design-imposed limit — the defining property of ImPress).
func (d Design) RowOpenLimit() dram.Tick {
	if d.Kind == ExPress {
		return d.TMRO
	}
	return d.Timings.TONMax
}

// TrackerTRH returns the threshold the underlying Rowhammer tracker must
// be configured for, given the DRAM's true Rowhammer threshold designTRH:
//
//   - NoRP and ImPress-P keep designTRH (the headline ImPress-P result);
//   - ExPress divides by the worst-case per-ACT charge loss at tMRO,
//     TCL(tMRO) = 1 + alpha*(tMRO-tRAS)/tRC;
//   - ImPress-N divides by (1 + alpha), its Equation-5 exposure to the
//     decoy pattern (equal to ExPress at tMRO = tRAS + tRC).
func (d Design) TrackerTRH(designTRH float64) float64 {
	switch d.Kind {
	case NoRP, ImpressP:
		return designTRH
	case ExPress:
		if d.EmpiricalThreshold {
			return designTRH * clm.ExpressThreshold(d.Timings, d.TMRO)
		}
		m := clm.Model{Alpha: d.Alpha, Timings: d.Timings}
		return designTRH / m.AccessTCL(d.TMRO)
	case ImpressN:
		return designTRH / (1 + d.Alpha)
	default:
		panic("core: unknown design kind")
	}
}

// Name returns a human-readable label including the distinguishing
// parameters, e.g. "express(tMRO=96ns, alpha=1)".
func (d Design) Name() string {
	switch d.Kind {
	case NoRP:
		return "no-rp"
	case ExPress:
		if d.EmpiricalThreshold {
			return fmt.Sprintf("express(tMRO=%dns, empirical)", d.TMRO.ToNs())
		}
		return fmt.Sprintf("express(tMRO=%dns, alpha=%g)", d.TMRO.ToNs(), d.Alpha)
	case ImpressN:
		return fmt.Sprintf("impress-n(alpha=%g)", d.Alpha)
	case ImpressP:
		if d.FracBits != clm.FracBits {
			return fmt.Sprintf("impress-p(fracbits=%d)", d.FracBits)
		}
		return "impress-p"
	default:
		return d.Kind.String()
	}
}
