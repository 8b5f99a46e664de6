package security

import (
	"context"
	"fmt"

	"impress/internal/attack"
	"impress/internal/errs"
	"impress/internal/stats"
)

// Monte-Carlo reliability estimation (the paper's Section III-B
// methodology targets a 0.1 FIT bank-failure rate for probabilistic
// trackers; this estimator measures empirical failure fractions and
// damage distributions over many independent trials).

// SeededTrackerFactory builds a tracker from an explicit seed, letting the
// Monte-Carlo driver decorrelate trials.
type SeededTrackerFactory func(trackerTRH float64, seed uint64) TrackerFactory

// MonteCarloResult summarizes a trial ensemble.
type MonteCarloResult struct {
	Trials    int
	Failures  int     // trials whose peak damage reached the design TRH
	MaxDamage float64 // worst peak damage across trials
	// Damages holds each trial's peak damage for distribution analysis.
	Damages []float64
}

// FailureFraction returns Failures/Trials.
func (m MonteCarloResult) FailureFraction() float64 {
	if m.Trials == 0 {
		return 0
	}
	return float64(m.Failures) / float64(m.Trials)
}

// DamagePercentile returns the p-th percentile of peak damage.
func (m MonteCarloResult) DamagePercentile(p float64) float64 {
	return stats.Percentile(m.Damages, p)
}

// MonteCarlo runs trials independent harness runs with decorrelated
// tracker seeds and a fresh pattern per trial, recording the peak-damage
// distribution. newPattern must return a fresh, stateless-from-start
// pattern each call. A non-positive trial count or an invalid config
// returns an error wrapping errs.ErrBadSpec; ctx is polled between
// trials (and inside each, at access granularity), so cancellation
// returns an error matching errs.ErrCancelled and ctx.Err().
func MonteCarlo(ctx context.Context, cfg Config, newPattern func() attack.Pattern,
	newTracker SeededTrackerFactory, trials int, baseSeed uint64) (MonteCarloResult, error) {
	if trials <= 0 {
		return MonteCarloResult{}, fmt.Errorf("security: %w: Monte-Carlo needs at least one trial, got %d",
			errs.ErrBadSpec, trials)
	}
	res := MonteCarloResult{Trials: trials}
	seeds := stats.NewRand(baseSeed)
	for i := 0; i < trials; i++ {
		if err := ctx.Err(); err != nil {
			return MonteCarloResult{}, fmt.Errorf("security: Monte-Carlo stopped after %d of %d trials: %w",
				i, trials, errs.Cancelled(err))
		}
		trialCfg := cfg
		trialCfg.Tracker = newTracker(cfg.Design.TrackerTRH(cfg.DesignTRH), seeds.Uint64())
		r, err := RunContext(ctx, trialCfg, newPattern())
		if err != nil {
			return MonteCarloResult{}, err
		}
		res.Damages = append(res.Damages, r.MaxDamage)
		if r.MaxDamage > res.MaxDamage {
			res.MaxDamage = r.MaxDamage
		}
		if r.MaxDamage >= cfg.DesignTRH {
			res.Failures++
		}
	}
	return res, nil
}
