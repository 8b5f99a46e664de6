// Package security measures the effectiveness of Row-Press defenses
// against adversarial patterns. It replays attack patterns from
// internal/attack against a (defense, tracker) pair on a single-bank
// model, accumulating per-victim damage with the unified charge-loss model
// at an attacker-chosen "true" device alpha, and reports the maximum
// damage any row accumulates before its victims are refreshed — the
// empirical effective threshold the design tolerates.
//
// The package also contains the analytic attack-slowdown models of
// Appendix B (Figures 18 and 19) and the storage-overhead calculator of
// Section VI-C.
package security

import (
	"context"
	"fmt"

	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/errs"
	"impress/internal/trackers"
)

// TrackerFactory builds a per-bank tracker configured for the given
// tolerated threshold (already reduced to T* by the defense design where
// applicable).
type TrackerFactory func(trackerTRH float64) trackers.Tracker

// Config describes one security experiment.
type Config struct {
	// Design is the Row-Press defense under test.
	Design core.Design
	// DesignTRH is the DRAM device's true Rowhammer threshold the system
	// is provisioned for.
	DesignTRH float64
	// AlphaTrue is the device's actual Row-Press leakage rate used for
	// damage accounting (the attacker gets the benefit of the real
	// device, not the designer's model).
	AlphaTrue float64
	// RFMTH is the controller's RFM cadence in activations per bank
	// (used only when the tracker is in-DRAM). Zero disables RFM.
	RFMTH int
	// Duration bounds the attack; zero means one refresh window (tREFW),
	// the natural horizon since all victims refresh once per window.
	Duration dram.Tick
	// Tracker builds the tracker under test.
	Tracker TrackerFactory
	// RFMPaceOnRawACTs is an ABLATION switch: pace RFM on raw activation
	// counts (the plain DDR5 RAA counter) instead of the weighted EACT
	// stream. With ImPress and an in-DRAM tracker this re-opens the
	// Row-Press hole — an attacker doing long holds generates few ACTs
	// and starves the tracker of mitigation windows — which is why the
	// design paces RFM on EACT (see the RFMPacing ablation test).
	RFMPaceOnRawACTs bool
}

// Result summarizes one harness run.
type Result struct {
	Pattern   string
	MaxDamage float64 // peak damage (in TRH units) any row ever reached

	DemandACTs     uint64
	MitigativeACTs uint64
	Mitigations    uint64
	RFMs           uint64
	Refreshes      uint64

	Elapsed        dram.Tick // total wall-clock time simulated
	MitigationTime dram.Tick // time spent on mitigation work (MC-side)
}

// Slowdown returns the fraction of time lost to mitigation work (the
// Appendix-B metric: t_mitigation / t_N).
func (r Result) Slowdown() float64 {
	base := r.Elapsed - r.MitigationTime
	if base <= 0 {
		return 0
	}
	return float64(r.MitigationTime) / float64(base)
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("%s: maxDamage=%.1f acts=%d mitigations=%d slowdown=%.2f%%",
		r.Pattern, r.MaxDamage, r.DemandACTs, r.Mitigations, 100*r.Slowdown())
}

// Validate reports whether the config is a well-formed security
// experiment, returning a typed error (wrapping errs.ErrBadSpec)
// otherwise: an invalid defense design or a missing tracker factory.
func (cfg Config) Validate() error {
	if err := cfg.Design.Validate(); err != nil {
		return fmt.Errorf("security: %w: %w", errs.ErrBadSpec, err)
	}
	if cfg.Tracker == nil {
		return fmt.Errorf("security: %w: missing tracker factory", errs.ErrBadSpec)
	}
	return nil
}

// RunContext replays pattern against cfg and returns the measured
// result. Invalid caller input returns a typed error wrapping
// errs.ErrBadSpec (see Config.Validate). Cancellation is honored at
// access boundaries — the context is polled every few hundred attack
// accesses, a sub-millisecond granularity — returning an error matching
// both errs.ErrCancelled and ctx.Err(); an uncancellable context costs
// one nil-check per access.
//
// Model simplifications (documented in DESIGN.md §5): regular tREFI
// refreshes are served whenever the bank is idle and consume tRFC each
// (refresh postponement is implicit — row-open time is already bounded by
// the design's row-open limit, which never exceeds the DDR5 tONMax of
// 5 tREFI); the per-window victim refresh is modeled as a full damage
// reset at each tREFW boundary. Mitigations requested while the aggressor
// row is open are applied when it closes, since victim rows share the
// bank and cannot be activated while another row is open.
func RunContext(ctx context.Context, cfg Config, pattern attack.Pattern) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	done := ctx.Done()
	accesses := 0
	duration := cfg.Duration
	if duration == 0 {
		duration = cfg.Design.Timings.TREFW
	}
	h := newHarness(cfg, pattern)
	for h.now < duration {
		if done != nil && accesses&0xff == 0 {
			select {
			case <-done:
				return Result{}, fmt.Errorf("security: %s stopped at tick %d: %w",
					pattern.Name(), h.now, errs.Cancelled(ctx.Err()))
			default:
			}
		}
		accesses++
		h.step()
	}
	h.res.Elapsed = h.now
	return h.res, nil
}

// harness is one RunContext replay: a single bank under one defense
// policy and tracker, with the per-victim damage table.
type harness struct {
	t         dram.Timings
	policy    core.BankPolicy
	tr        trackers.Tracker
	pattern   attack.Pattern
	tcl       clm.AccessModel
	openLimit dram.Tick
	// rfmDue is the weighted-activation count that makes an RFM due, or
	// zero when RFM is off (no RFMTH, or a memory-controller tracker).
	rfmDue    clm.EACT
	rawPacing bool

	res       Result
	damage    damageTable
	now       dram.Tick
	served    int64 // tREFI refreshes served so far
	windowEnd dram.Tick
	// RFM pacing operates on the same weighted activation stream the
	// tracker sees: under No-RP and ExPress every ACT contributes exactly
	// One, reproducing the plain DDR5 RAA counter; under ImPress the
	// Row-Press-equivalent activity also advances the counter, so a
	// pressing attacker cannot starve an in-DRAM tracker of mitigation
	// opportunities.
	eactSinceRFM clm.EACT
	pending      []int64 // aggressor rows awaiting victim refresh
}

func newHarness(cfg Config, pattern attack.Pattern) *harness {
	t := cfg.Design.Timings
	h := &harness{
		t:         t,
		policy:    core.NewBankPolicy(cfg.Design),
		tr:        cfg.Tracker(cfg.Design.TrackerTRH(cfg.DesignTRH)),
		pattern:   pattern,
		tcl:       clm.Model{Alpha: cfg.AlphaTrue, Timings: t}.Access(),
		openLimit: cfg.Design.RowOpenLimit(),
		rawPacing: cfg.RFMPaceOnRawACTs,
		res:       Result{Pattern: pattern.Name()},
		damage:    damageTable{index: make(map[int64]*damagePage)},
		windowEnd: t.TREFW,
	}
	if h.tr.InDRAM() && cfg.RFMTH > 0 {
		h.rfmDue = clm.EACT(cfg.RFMTH) * clm.One
	}
	return h
}

// step replays one attack access: due refreshes, the window reset, the
// access itself with its damage, then any mitigations it triggered.
//
//impress:hotpath
func (h *harness) step() {
	t := &h.t
	// Serve any refreshes that have come due while the bank is idle.
	if due := int64(h.now/t.TREFI) - h.served; due > 0 {
		h.now += dram.Tick(due) * t.TRFC
		h.served += due
		h.res.Refreshes += uint64(due)
	}
	// Refresh-window boundary: every victim has been refreshed.
	if h.now >= h.windowEnd {
		h.damage.reset()
		h.tr.ResetWindow()
		h.windowEnd += t.TREFW
	}

	acc := h.pattern.Next(h.now)
	actAt := acc.ActAt
	if actAt < h.now {
		actAt = h.now
	}
	tON := acc.TON
	if tON < t.TRAS {
		tON = t.TRAS
	}
	if tON > h.openLimit {
		// ExPress's tMRO (or the DDR5 tONMax) forces the row closed.
		tON = h.openLimit
	}

	h.feed(h.policy.OnActivate(actAt, acc.Row))
	h.res.DemandACTs++

	closeAt := actAt + tON
	h.accrue(acc.Row, tON)
	h.feed(h.policy.OnPrecharge(closeAt, acc.Row, tON))
	h.now = closeAt + t.TPRE

	// Apply memory-controller mitigations queued during this access.
	for _, aggressor := range h.pending {
		h.damage.clearVictims(aggressor)
		h.res.Mitigations++
		h.res.MitigativeACTs += trackers.ActsPerMitigation
		cost := dram.Tick(trackers.ActsPerMitigation) * t.TRC
		h.now += cost
		h.res.MitigationTime += cost
	}
	h.pending = h.pending[:0]

	// RFM cadence for in-DRAM trackers: due every RFMTH units of
	// weighted activation.
	if h.rfmDue > 0 && h.eactSinceRFM >= h.rfmDue {
		h.eactSinceRFM = 0
		h.now += t.TRFM
		h.res.RFMs++
		for _, aggressor := range h.tr.OnRFM() {
			h.damage.clearVictims(aggressor)
			h.res.Mitigations++
		}
	}
}

// feed routes policy events into the tracker and queues the mitigations
// it requests (the events and the tracker's result are both consumed
// before the next call that could overwrite them).
func (h *harness) feed(events []core.Event) {
	for _, ev := range events {
		if h.rawPacing {
			h.eactSinceRFM += clm.One
		} else {
			h.eactSinceRFM += ev.Weight
		}
		h.pending = append(h.pending, h.tr.OnActivation(ev.Row, ev.Weight)...)
	}
}

// accrue adds one access's charge loss to each victim of row and tracks
// the peak.
func (h *harness) accrue(row int64, tON dram.Tick) {
	if peak := h.damage.addVictims(row, h.tcl.TCL(tON)); peak > h.res.MaxDamage {
		h.res.MaxDamage = peak
	}
}
