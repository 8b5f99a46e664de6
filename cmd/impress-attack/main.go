// Command impress-attack replays an adversarial DRAM pattern against a
// (tracker, defense) pair on the single-bank security harness and reports
// the peak victim damage — the empirical effective threshold of the
// configuration. The run goes through an impress.Lab under a
// SIGINT/SIGTERM-aware context, so long multi-window attacks cancel
// cleanly.
//
// Examples:
//
//	impress-attack -pattern rowpress -ton-trc 81 -tracker graphene -design no-rp
//	impress-attack -pattern decoy -tracker graphene -design impress-n
//	impress-attack -pattern combined -k 72 -tracker graphene -design impress-p
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"impress"
	"impress/internal/attack"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/security"
	"impress/internal/simcli"
	"impress/internal/stats"
	"impress/internal/trackers"
)

func main() {
	ctx, stop := simcli.SignalContext()
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code; it is the
// testable seam for the command. ctx carries SIGINT/SIGTERM for both
// the single-pattern run and the strategy search: an interrupted run
// prints the interrupt report and exits 1; invalid input exits 2.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impress-attack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	patternFlag := fs.String("pattern", "rowhammer", "attack: rowhammer, rowpress, decoy, combined, interleaved, or search (sweep all strategies)")
	tonTRC := fs.Int64("ton-trc", 81, "rowpress row-open time in tRC units")
	k := fs.Int64("k", 0, "combined-pattern Row-Press parameter K")
	trackerFlag := fs.String("tracker", "graphene", "tracker: "+strings.Join(trackers.Names(), ", "))
	designFlag := fs.String("design", "no-rp", "defense: no-rp, express, impress-n, impress-p")
	alphaDesign := fs.Float64("alpha", 1.0, "design alpha (express/impress-n retuning)")
	alphaTrue := fs.Float64("alpha-true", 0.48, "true device leakage rate for damage accounting")
	trh := fs.Float64("trh", 4000, "device Rowhammer threshold")
	rfmth := fs.Int("rfmth", 80, "RFM threshold for in-DRAM trackers")
	fracBits := fs.Int("fracbits", 7, "ImPress-P fractional bits")
	seed := fs.Uint64("seed", 1, "seed for probabilistic trackers")
	windows := fs.Int64("windows", 1, "attack duration in refresh windows (tREFW)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	tm := dram.DDR5()
	design, err := core.ParseDesign(*designFlag, *alphaDesign, 0, *fracBits)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	factory, err := parseTracker(*trackerFlag, *rfmth, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var pattern attack.Pattern // nil for the strategy search
	switch *patternFlag {
	case "search":
	case "rowhammer":
		pattern = &attack.Rowhammer{Row: 1 << 20, Timings: tm}
	case "rowpress":
		pattern = &attack.RowPress{Row: 1 << 20, TON: dram.Tick(*tonTRC) * tm.TRC, Timings: tm}
	case "decoy":
		pattern = &attack.Decoy{Row: 1 << 20, DecoyRow: 1 << 24, Spread: 8192, Timings: tm}
	case "combined":
		pattern = &attack.CombinedK{Row: 1 << 20, K: *k, Timings: tm}
	case "interleaved":
		pattern = &attack.InterleavedRHRP{Row: 1 << 20, BurstLen: 16, HoldTON: 8 * tm.TRC, Timings: tm}
	default:
		fmt.Fprintf(stderr, "unknown pattern %q\n", *patternFlag)
		return 2
	}

	cfg := security.Config{
		Design:    design,
		DesignTRH: *trh,
		AlphaTrue: *alphaTrue,
		RFMTH:     *rfmth,
		Duration:  dram.Tick(*windows) * tm.TREFW,
		Tracker:   factory,
	}
	if pattern == nil {
		sr, err := security.SearchWorstCase(ctx, cfg)
		if err != nil {
			return runFailed(stderr, err)
		}
		fmt.Fprintf(stdout, "%-24s %-12s %s\n", "strategy", "peak damage", "verdict")
		for _, r := range sr.All {
			verdict := "contained"
			if r.MaxDamage >= *trh {
				verdict = "BIT FLIP"
			}
			fmt.Fprintf(stdout, "%-24s %-12.1f %s\n", r.Pattern, r.MaxDamage, verdict)
		}
		fmt.Fprintf(stdout, "\nworst case: %s (%.1f / TRH %.0f)\n", sr.BestPattern, sr.BestResult.MaxDamage, *trh)
		return 0
	}

	lab, err := impress.NewLab()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	res, err := lab.Attack(ctx, cfg, pattern)
	if err != nil {
		return runFailed(stderr, err)
	}

	fmt.Fprintf(stdout, "pattern:          %s\n", res.Pattern)
	fmt.Fprintf(stdout, "design:           %s (tracker tuned to T*=%.0f)\n", design.Name(), design.TrackerTRH(*trh))
	fmt.Fprintf(stdout, "device alpha:     %.2f\n", *alphaTrue)
	fmt.Fprintf(stdout, "peak damage:      %.1f / TRH %.0f\n", res.MaxDamage, *trh)
	if res.MaxDamage >= *trh {
		fmt.Fprintf(stdout, "verdict:          BIT FLIP (attack succeeds)\n")
	} else {
		fmt.Fprintf(stdout, "verdict:          contained (margin %.1fx)\n", *trh/res.MaxDamage)
	}
	fmt.Fprintf(stdout, "demand ACTs:      %d\n", res.DemandACTs)
	fmt.Fprintf(stdout, "mitigations:      %d (%d mitigative ACTs)\n", res.Mitigations, res.MitigativeACTs)
	fmt.Fprintf(stdout, "RFMs / refreshes: %d / %d\n", res.RFMs, res.Refreshes)
	fmt.Fprintf(stdout, "attack slowdown:  %.2f%%\n", 100*res.Slowdown())
	return 0
}

// runFailed reports a failed harness run and returns its exit code: 1
// with the interrupt report when the run was cancelled, 2 otherwise.
func runFailed(stderr io.Writer, err error) int {
	if simcli.ReportInterrupted(stderr, err, "") {
		return 1
	}
	fmt.Fprintln(stderr, err)
	return 2
}

// parseTracker resolves -tracker through the tracker registry, so every
// registered tracker — including zoo extensions like hydra and abacus —
// is attackable by name without this command changing. Unknown names
// come back as impress.ErrBadSpec listing what is registered.
func parseTracker(name string, rfmth int, seed uint64) (security.TrackerFactory, error) {
	info, ok := trackers.ByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: unknown tracker %q (registered: %s)",
			impress.ErrBadSpec, name, strings.Join(trackers.Names(), ", "))
	}
	return func(trh float64) trackers.Tracker {
		return info.New(trh, rfmth, stats.NewRand(seed))
	}, nil
}
