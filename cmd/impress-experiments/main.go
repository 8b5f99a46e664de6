// Command impress-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	impress-experiments [-scale quick|standard|full] [-parallel N]
//	                    [-only fig3,fig13,...] [-out DIR]
//	                    [-cache-dir DIR] [-shard i/n]
//	impress-experiments cache stats|gc|verify [-cache-dir DIR]
//
// With -out, each experiment is additionally written to DIR/<id>.txt.
// The analytical experiments (charge-loss model, security harness,
// storage, attack equations) take seconds; the simulation-backed figures
// (fig3, fig5, fig13, fig14, energy, fig15, fig16) are fanned out over
// -parallel worker goroutines (default: all CPUs) and take minutes at
// -scale full. Output is deterministic and byte-identical at every
// parallelism level.
//
// With -cache-dir (or $IMPRESS_CACHE), every simulation result is
// persisted in a content-addressed store and reused by later runs, so a
// re-run against a warm cache simulates nothing and is near-instant.
// -shard i/n simulates only the i-th of n deterministic partitions of the
// full sweep into the store and renders no tables: point n machines (or
// CI jobs) at a shared cache directory, run one shard on each, then
// render every table from any machine with a plain run against the same
// directory. The cache subcommand inspects (stats), cleans (gc) and
// spot-checks (verify — re-simulates a sample and compares bit-for-bit)
// a store directory. See EXPERIMENTS.md for a CI fan-out example.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"impress"
	"impress/internal/experiments"
	"impress/internal/resultstore"
	"impress/internal/simcli"
)

func main() {
	ctx, stop := simcli.SignalContext()
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code; it is the
// testable seam for the command. ctx carries SIGINT/SIGTERM: an
// interrupted sweep stops within one simulation boundary, flushes
// nothing partial (store writes are atomic, completed entries persist),
// prints a resume hint and exits non-zero.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "cache" {
		return runCache(ctx, args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("impress-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "quick", "simulation scale: quick, standard, or full")
	only := fs.String("only", "", "comma-separated experiment IDs (default: all)")
	outDir := fs.String("out", "", "directory to write per-experiment text files")
	analytical := fs.Bool("analytical", false, "run only the analytical (no-simulation) experiments")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"max concurrent simulations (1 = serial; output is identical either way)")
	cacheDir := fs.String("cache-dir", os.Getenv("IMPRESS_CACHE"),
		"persistent result-store directory (default $IMPRESS_CACHE; empty disables caching)")
	shard := fs.String("shard", "",
		"simulate only partition i/n of the full sweep into -cache-dir and render no tables")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	scale, err := experiments.ScaleByName(*scaleFlag)
	if err != nil {
		fmt.Fprintf(stderr, "unknown scale %q (want quick, standard, or full)\n", *scaleFlag)
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(stderr, "-parallel must be at least 1 (got %d)\n", *parallel)
		return 2
	}

	var store *resultstore.Store
	if *cacheDir != "" {
		var err error
		if store, err = resultstore.Open(*cacheDir); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	if *shard != "" {
		if *only != "" || *analytical || *outDir != "" {
			fmt.Fprintln(stderr, "-shard populates the result store only; it cannot combine with -only, -analytical or -out")
			return 2
		}
		runner := experiments.NewRunner(scale)
		runner.Parallelism = *parallel
		runner.Store = store
		return runShard(ctx, runner, store, *shard, stdout, stderr)
	}

	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id) // tolerate stray commas: -only fig3,
			}
		}
		if len(ids) == 0 {
			fmt.Fprintf(stderr, "-only %q names no experiments\n", *only)
			return 2
		}
	}

	// The sweep runs through an impress.Lab: the progress stream feeds
	// the cache accounting (replacing the old ad-hoc stderr prints), and
	// each table streams out as soon as it is assembled so long runs
	// produce partial results.
	var counts simcli.Counts
	lab, err := impress.NewLab(
		impress.WithResultStore(store),
		impress.WithParallelism(*parallel),
		impress.WithProgress(counts.Observe),
	)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	opts := []impress.ExperimentsOption{}
	if len(ids) > 0 {
		opts = append(opts, impress.ExperimentsOnly(ids...))
	}
	if *analytical {
		opts = append(opts, impress.ExperimentsAnalytical())
	}
	// A failed -out write aborts the sweep (cancelling runCtx) instead
	// of assembling the remaining tables against a full disk or bad
	// path; the write error is reported in place of the induced
	// cancellation.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	last := time.Now()
	var writeErr error
	opts = append(opts, impress.ExperimentsOnTable(func(t *impress.ExperimentTable) {
		fmt.Fprintf(stderr, "[%s done in %v]\n", t.ID, time.Since(last).Round(time.Millisecond))
		last = time.Now()
		t.Render(stdout)
		if *outDir != "" && writeErr == nil {
			if writeErr = writeTable(*outDir, t); writeErr != nil {
				cancelRun()
			}
		}
	}))
	_, err = lab.Experiments(runCtx, scale, opts...)
	if store != nil {
		fmt.Fprintln(stderr, cacheSummary(&counts, store))
	}
	if writeErr != nil {
		fmt.Fprintln(stderr, writeErr)
		return 1
	}
	if err != nil {
		if simcli.ReportInterrupted(stderr, err, *cacheDir) {
			if *cacheDir == "" {
				simcli.SuggestStore(stderr)
			}
			return 1
		}
		fmt.Fprintln(stderr, err)
		if simcli.UsageError(err) {
			return 2
		}
		return 1
	}
	return 0
}

// cacheSummary renders the one-line store accounting emitted (on stderr)
// after any cached run: "simulated=0" is the signature of a fully warm
// sweep. The simulated count comes from the Lab's progress stream (one
// ProgressSpecFinished per actual simulation); warmups-restored counts
// the simulations that skipped warmup by restoring a cached checkpoint.
func cacheSummary(counts *simcli.Counts, store *resultstore.Store) string {
	c := store.Counters()
	return fmt.Sprintf("[cache] simulated=%d warmups-restored=%d hits=%d misses=%d writes=%d write-errors=%d ckpt-writes=%d dir=%s",
		counts.Simulated, counts.WarmupsRestored, c.Hits, c.Misses, c.Writes, c.WriteErrors, c.CheckpointWrites, store.Dir())
}

// parseShard parses a 1-based "i/n" shard spec, rejecting anything but
// exactly two integers (a typo like "1/2/8" must not silently run as
// shard 1 of 2 and skew a fleet's partition). Range checks belong to
// Runner.ShardSpecs.
func parseShard(s string) (index, count int, err error) {
	before, after, ok := strings.Cut(s, "/")
	if ok {
		index, err = strconv.Atoi(before)
		if err == nil {
			count, err = strconv.Atoi(after)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("malformed -shard %q (want i/n, e.g. 1/4)", s)
	}
	return index, count, nil
}

// runShard simulates one deterministic partition of the full sweep into
// the shared result store. It renders no tables: after every shard of a
// fleet has run, any plain invocation against the same -cache-dir
// assembles all of them with zero simulations.
func runShard(ctx context.Context, runner *experiments.Runner, store *resultstore.Store, shard string, stdout, stderr io.Writer) int {
	index, count, err := parseShard(shard)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	specs, err := experiments.SpecsFor(runner, experiments.RunOptions{})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	mine, err := runner.ShardSpecs(specs, index, count)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if store == nil {
		fmt.Fprintln(stderr, "-shard needs a shared result store: set -cache-dir or $IMPRESS_CACHE")
		return 2
	}
	start := time.Now()
	if err := runner.PrefetchContext(ctx, mine); err != nil {
		if simcli.ReportInterrupted(stderr, err, store.Dir()) {
			fmt.Fprintf(stderr, "shard %d/%d: %d of %d owned specs were simulated before the interrupt\n",
				index, count, runner.Sims(), len(mine))
			return 1
		}
		fmt.Fprintln(stderr, err)
		return 1
	}
	c := store.Counters()
	fmt.Fprintf(stdout, "shard %d/%d: %d specs owned, simulated=%d hits=%d writes=%d in %v\n",
		index, count, len(mine), runner.Sims(), c.Hits, c.Writes,
		time.Since(start).Round(time.Millisecond))
	if c.WriteErrors > 0 {
		fmt.Fprintf(stderr, "shard %d/%d: %d results could not be written to %s — the merge run would re-simulate them\n",
			index, count, c.WriteErrors, store.Dir())
		return 1
	}
	return 0
}

// runCache dispatches the `impress-experiments cache <action>` subcommand
// over a store directory: stats, gc or verify.
func runCache(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(stderr, "usage: impress-experiments cache stats|gc|verify [-cache-dir DIR]")
		return 2
	}
	action := args[0]
	fs := flag.NewFlagSet("impress-experiments cache "+action, flag.ContinueOnError)
	fs.SetOutput(stderr)
	cacheDir := fs.String("cache-dir", os.Getenv("IMPRESS_CACHE"),
		"result-store directory (default $IMPRESS_CACHE)")
	sample := fs.Int("sample", 3, "entries to re-simulate (verify only; 0 = all)")
	if err := fs.Parse(args[1:]); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *cacheDir == "" {
		fmt.Fprintln(stderr, "impress-experiments cache: set -cache-dir or $IMPRESS_CACHE")
		return 2
	}
	store, err := resultstore.Open(*cacheDir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	switch action {
	case "stats":
		return cacheStats(store, stdout, stderr)
	case "gc":
		return cacheGC(store, stdout, stderr)
	case "verify":
		return cacheVerify(ctx, store, *sample, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "impress-experiments cache: unknown action %q (want stats, gc or verify)\n", action)
		return 2
	}
}

func cacheStats(store *resultstore.Store, stdout, stderr io.Writer) int {
	s, err := store.ReadStats()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "store:     %s\n", store.Dir())
	fmt.Fprintf(stdout, "entries:   %d (%d bytes)\n", s.Entries, s.Bytes)
	fmt.Fprintf(stdout, "invalid:   %d (%d bytes; corrupt or outdated — reclaim with gc)\n",
		s.Invalid, s.InvalidBytes)
	producers := make([]string, 0, len(s.ByProducer))
	for p := range s.ByProducer {
		producers = append(producers, p)
	}
	sort.Strings(producers)
	for _, p := range producers {
		fmt.Fprintf(stdout, "producer:  %s (%d entries)\n", p, s.ByProducer[p])
	}
	return 0
}

func cacheGC(store *resultstore.Store, stdout, stderr io.Writer) int {
	removed, freed, err := store.GC()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "gc: removed %d invalid files, freed %d bytes in %s\n",
		removed, freed, store.Dir())
	return 0
}

// cacheVerify re-simulates a deterministic sample of store entries and
// compares each fresh result bit-for-bit against the cached one. A
// mismatch means the simulator's behavior changed without a
// resultstore.FormatVersion bump (or the store was tampered with); the
// fix is bumping the version (or gc-ing after one) so stale entries
// become misses.
func cacheVerify(ctx context.Context, store *resultstore.Store, sample int, stdout, stderr io.Writer) int {
	entries, err := store.Entries()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if len(entries) == 0 {
		fmt.Fprintln(stdout, "verify: store is empty")
		return 0
	}
	// Checkpoint records cache warmup state, not results — there is
	// nothing to re-simulate and compare, so verify samples only the
	// result entries.
	results := entries[:0]
	for _, e := range entries {
		if e.Kind == "" {
			results = append(results, e)
		}
	}
	if len(results) == 0 {
		fmt.Fprintln(stdout, "verify: store holds no result entries (checkpoints only)")
		return 0
	}
	entries = results
	// A store-less Lab: the re-simulation must not be served from the
	// store it is checking.
	lab, err := impress.NewLab()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	picked := sampleEntries(entries, sample)
	mismatches, skipped := 0, 0
	for _, e := range picked {
		label := fmt.Sprintf("%s | %s/%s/%s", e.Key[:12], e.Spec.Workload, e.Spec.Design.Name(), e.Spec.Tracker)
		cfg, err := e.Spec.Config()
		if err != nil {
			// Trace-file entries are keyed by content hash only; without
			// the file they cannot be re-simulated.
			fmt.Fprintf(stdout, "skip  %s: %v\n", label, err)
			skipped++
			continue
		}
		res, err := simcli.RunLab(ctx, lab, cfg)
		if err != nil {
			if simcli.ReportInterrupted(stderr, err, store.Dir()) {
				return 1
			}
			fmt.Fprintf(stderr, "verify %s: %v\n", label, err)
			return 1
		}
		if !reflect.DeepEqual(res, e.Result) {
			fmt.Fprintf(stdout, "MISMATCH %s (produced by %s):\n  cached: %+v\n  fresh:  %+v\n",
				label, e.Producer, e.Result, res)
			mismatches++
			continue
		}
		fmt.Fprintf(stdout, "ok    %s\n", label)
	}
	fmt.Fprintf(stdout, "verify: %d checked, %d ok, %d mismatched, %d skipped of %d entries\n",
		len(picked), len(picked)-mismatches-skipped, mismatches, skipped, len(entries))
	if mismatches > 0 {
		fmt.Fprintln(stderr, "verify: cached results diverge from the current simulator — bump resultstore.FormatVersion or gc the store")
		return 1
	}
	if skipped == len(picked) {
		// A verify gate that compared nothing must not report success.
		fmt.Fprintln(stderr, "verify: every sampled entry was skipped — nothing was actually verified; raise -sample or check the store's contents")
		return 1
	}
	return 0
}

// sampleEntries picks a deterministic stride sample of n entries (the
// slice is already key-sorted); n <= 0 or n >= len keeps all.
func sampleEntries(entries []resultstore.Entry, n int) []resultstore.Entry {
	if n <= 0 || n >= len(entries) {
		return entries
	}
	picked := make([]resultstore.Entry, 0, n)
	for i := 0; i < n; i++ {
		picked = append(picked, entries[i*len(entries)/n])
	}
	return picked
}

func writeTable(dir string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	t.Render(f)
	return nil
}
