package security

import (
	"context"

	"impress/internal/attack"
	"impress/internal/dram"
)

// Worst-case pattern search: rather than trusting a hand-picked attack,
// sweep the attacker's strategy space — pure Rowhammer, Row-Press at a
// grid of row-open times up to the DDR5 maximum, the ImPress-N decoy, and
// combined-K loops — and report the strategy that maximizes peak victim
// damage against a given configuration. The security claims in the paper
// are worst-case claims; this search is how the reproduction checks them
// without assuming it already knows the worst pattern.

// SearchResult is the outcome of a worst-case search.
type SearchResult struct {
	// BestPattern names the maximizing strategy.
	BestPattern string
	// BestResult is its harness outcome.
	BestResult Result
	// All holds every evaluated strategy's outcome, sorted by evaluation
	// order.
	All []Result
}

// candidatePatterns enumerates the attacker strategy grid.
func candidatePatterns(t dram.Timings) []func() attack.Pattern {
	row := int64(1 << 20)
	var out []func() attack.Pattern
	out = append(out, func() attack.Pattern {
		return &attack.Rowhammer{Row: row, Timings: t}
	})
	// Row-Press grid: geometric tON sweep from 2 tRC to the DDR5 cap.
	for _, trc := range []int64{2, 4, 8, 16, 32, 81, 162, 406} {
		trc := trc
		out = append(out, func() attack.Pattern {
			return &attack.RowPress{Row: row, TON: dram.Tick(trc) * t.TRC, Timings: t}
		})
	}
	out = append(out, func() attack.Pattern {
		return &attack.Decoy{Row: row, DecoyRow: 1 << 24, Spread: 8192, Timings: t}
	})
	for _, k := range []int64{1, 8, 72} {
		k := k
		out = append(out, func() attack.Pattern {
			return &attack.CombinedK{Row: row, K: k, Timings: t}
		})
	}
	out = append(out, func() attack.Pattern {
		return &attack.InterleavedRHRP{Row: row, BurstLen: 16, HoldTON: 16 * t.TRC, Timings: t}
	})
	return out
}

// SearchWorstCase evaluates the full strategy grid against cfg and returns
// the maximizing pattern. Probabilistic trackers should be given a fresh
// deterministic seed per run via cfg.Tracker (the factory is re-invoked
// for every strategy). Invalid configs return an error wrapping
// errs.ErrBadSpec; cancellation stops the search within one strategy's
// access-poll interval with an error matching errs.ErrCancelled and
// ctx.Err().
func SearchWorstCase(ctx context.Context, cfg Config) (SearchResult, error) {
	var sr SearchResult
	for _, mk := range candidatePatterns(cfg.Design.Timings) {
		res, err := RunContext(ctx, cfg, mk())
		if err != nil {
			return SearchResult{}, err
		}
		sr.All = append(sr.All, res)
		if res.MaxDamage > sr.BestResult.MaxDamage {
			sr.BestResult = res
			sr.BestPattern = res.Pattern
		}
	}
	return sr, nil
}
