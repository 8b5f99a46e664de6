// Package simcli holds the simulation flag set, config assembly, Lab
// construction and result reporting shared by the CLIs that drive
// simulations (cmd/impress-sim and cmd/impress-trace replay), so the
// two cannot drift apart as parameters and counters are added. Runs go
// through impress.Lab — context-first, cancellable, progress-streamed —
// with this package supplying the flag plumbing around it.
package simcli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"impress"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/resultstore"
	"impress/internal/sim"
	"impress/internal/trace"
	"impress/internal/trackers"
)

// Flags collects the simulation parameters every sim-driving CLI shares.
type Flags struct {
	Tracker  string
	Design   string
	Alpha    float64
	TMRONs   int64
	FracBits int
	TRH      float64
	RFMTH    int
	Warmup   int64
	Run      int64
	Seed     uint64
	Clock    string
	// MaxRelError is the sampled-mode convergence target (-max-error):
	// stop sampling early once every tracked metric's 95% CI relative
	// half-width is at or below it. Zero keeps the fixed interval count;
	// it only affects -clock sampled.
	MaxRelError float64
	// CacheDir is the persistent result-store directory (-cache-dir,
	// defaulting to $IMPRESS_CACHE); empty disables caching.
	CacheDir string
}

// Register installs the shared flags on fs with the shared defaults and
// returns the struct the parsed values land in.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Tracker, "tracker", "graphene", "tracker: none, "+strings.Join(trackers.Names(), ", "))
	fs.StringVar(&f.Design, "design", "no-rp", "defense: no-rp, express, impress-n, impress-p")
	fs.Float64Var(&f.Alpha, "alpha", 1.0, "CLM alpha for express/impress-n threshold retuning")
	fs.Int64Var(&f.TMRONs, "tmro", 0, "ExPress tMRO in ns (default tRAS+tRC)")
	fs.IntVar(&f.FracBits, "fracbits", 7, "ImPress-P fractional EACT bits")
	fs.Float64Var(&f.TRH, "trh", 4000, "design Rowhammer threshold")
	fs.IntVar(&f.RFMTH, "rfmth", 80, "RFM threshold (in-DRAM trackers)")
	fs.Int64Var(&f.Warmup, "warmup", 100_000, "warmup instructions per core")
	fs.Int64Var(&f.Run, "instructions", 500_000, "measured instructions per core")
	fs.Uint64Var(&f.Seed, "seed", 1, "simulation seed")
	fs.StringVar(&f.Clock, "clock", "event",
		"clocking: event (skip idle cycles), cycle (tick every cycle), sampled (approximate interval sampling with 95% CIs)")
	fs.Float64Var(&f.MaxRelError, "max-error", 0,
		"sampled-mode convergence target: stop early once every metric's 95% CI relative half-width is at or below this (0 = fixed interval count)")
	fs.StringVar(&f.CacheDir, "cache-dir", os.Getenv("IMPRESS_CACHE"),
		"persistent result-store directory (default $IMPRESS_CACHE; empty disables caching)")
	return f
}

// OpenStore opens the persistent result store named by -cache-dir /
// $IMPRESS_CACHE, or returns nil (caching disabled) when neither is set.
func (f *Flags) OpenStore() (*resultstore.Store, error) {
	if f.CacheDir == "" {
		return nil, nil
	}
	return resultstore.Open(f.CacheDir)
}

// ParseClock maps a -clock flag value to the simulator mode.
func ParseClock(name string) (sim.ClockMode, error) {
	switch name {
	case "event":
		return sim.ClockEventDriven, nil
	case "cycle":
		return sim.ClockCycleAccurate, nil
	case "sampled":
		return sim.ClockSampled, nil
	default:
		return 0, fmt.Errorf("unknown -clock %q (want event, cycle or sampled)", name)
	}
}

// Config materializes the simulation configuration for workload w from
// the parsed flags, returning the design alongside for reporting.
func (f *Flags) Config(w trace.Workload) (sim.Config, core.Design, error) {
	design, err := core.ParseDesign(f.Design, f.Alpha, f.TMRONs, f.FracBits)
	if err != nil {
		return sim.Config{}, design, err
	}
	clock, err := ParseClock(f.Clock)
	if err != nil {
		return sim.Config{}, design, err
	}
	cfg := sim.DefaultConfig(w, design, sim.TrackerKind(f.Tracker))
	cfg.DesignTRH = f.TRH
	cfg.RFMTH = f.RFMTH
	cfg.WarmupInstructions = f.Warmup
	cfg.RunInstructions = f.Run
	cfg.Seed = f.Seed
	cfg.Clock = clock
	if clock == sim.ClockSampled {
		cfg.MaxRelError = f.MaxRelError
	}
	return cfg, design, nil
}

// ReplayCacheable reports whether a replayed run may go through the
// result store. Replays of recorded workloads are keyed as the live run
// of the recorded workload — valid precisely because the
// replay-equivalence contract makes the two bit-identical — but the
// contract holds only at the trace's recorded seed: the replay
// generator always reproduces the recorded stream, while a live
// generator's stream depends on the seed. A replay whose -seed override
// departs from the recording therefore must bypass the cache, or it
// would poison the live run's entry at that seed (and could be served a
// wrong result from it).
//
// Imported traces ("import:..." names) are always cacheable: their name
// is not WorkloadByName-resolvable, so ApplyTrace keys them by file
// content (sim.Config.TraceFile), and a TraceFile run always adopts the
// recorded seed — the content hash subsumes the whole recording.
//
// The name keying also trusts the header: a recording whose streams
// were not produced by the named workload at the recorded seed (a
// hand-edited file) breaks the contract undetectably, exactly like a
// hand-built Workload with a misleading Name (DESIGN.md §8). Do not
// replay untrusted trace files through a shared store.
func ReplayCacheable(h trace.Header, cfg sim.Config) bool {
	return trace.Imported(h.Name) || cfg.Seed == h.Seed
}

// StoreForReplay opens the flags' result store for a trace replay,
// applying the ReplayCacheable rule: when the replay's seed departs
// from the recording's, a one-line bypass notice goes to stderr and the
// returned store is nil (caching disabled for this run).
func (f *Flags) StoreForReplay(h trace.Header, cfg sim.Config, stderr io.Writer) (*resultstore.Store, error) {
	store, err := f.OpenStore()
	if err != nil || store == nil {
		return nil, err
	}
	if !ReplayCacheable(h, cfg) {
		fmt.Fprintf(stderr, "[cache bypassed: -seed %d differs from the recorded seed %d]\n",
			cfg.Seed, h.Seed)
		return nil, nil
	}
	return store, nil
}

// ApplyTrace opens the recorded trace at path — header and frame index
// only; requests stream from disk during the run — and loads it into
// cfg: the replay workload, the trace's core count, and — unless the
// caller's -seed flag was set explicitly — the trace's recorded seed,
// so replays keep randomized trackers on the live run's RNG chain by
// default (the replay-equivalence contract).
//
// An imported trace (an "import:..." name, produced by impress-trace
// import) is instead wired through cfg.TraceFile so the result store
// keys it by file content — the name cannot stand in for the streams —
// and the run always adopts the recorded seed.
//
// The returned Reader backs the run's generators: the caller must keep
// it open until the run finishes and close it afterwards.
func (f *Flags) ApplyTrace(cfg *sim.Config, fs *flag.FlagSet, path string) (*trace.Reader, error) {
	r, err := trace.OpenReader(path)
	if err != nil {
		return nil, err
	}
	h := r.Header()
	if trace.Imported(h.Name) {
		cfg.TraceFile = path
		cfg.Seed = h.Seed
		return r, nil
	}
	w, err := r.Workload()
	if err != nil {
		r.Close()
		return nil, err
	}
	cfg.Workload = w
	cfg.Cores = h.Cores
	seedSet := false
	fs.Visit(func(fl *flag.Flag) { seedSet = seedSet || fl.Name == "seed" })
	if !seedSet {
		cfg.Seed = h.Seed
	}
	return r, nil
}

// SignalContext returns a context cancelled by SIGINT/SIGTERM — the
// CLIs' root context, so ctrl-C stops a run at its next cancellation
// point (one simulation macro cycle, one sweep spec) instead of killing
// the process mid-write. The handler unregisters itself on the first
// delivery, restoring the default disposition, so a second ctrl-C
// during a slow graceful drain force-kills the process instead of
// being swallowed (signal.NotifyContext keeps catching — and
// discarding — signals until its stop func runs, which a drain-then-
// exit CLI never reaches while draining).
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-ch:
			signal.Stop(ch)
			cancel()
		case <-ctx.Done():
			signal.Stop(ch)
		}
	}()
	return ctx, cancel
}

// Counts accumulates a Lab's progress events for the CLI summary lines.
// Progress callbacks are serialized by the Lab, so plain fields suffice.
type Counts struct {
	Started, CacheHits, Simulated int64
	// WarmupsRestored counts the simulated runs that skipped warmup by
	// restoring a cached checkpoint (a subset of Simulated).
	WarmupsRestored int64
}

// Observe is the progress callback feeding the counts.
func (c *Counts) Observe(p impress.Progress) {
	switch p.Kind {
	case impress.ProgressSpecStarted:
		c.Started++
	case impress.ProgressSpecCacheHit:
		c.CacheHits++
	case impress.ProgressSpecFinished:
		c.Simulated++
		if p.WarmupRestored {
			c.WarmupsRestored++
		}
	}
}

// NewLab builds the Lab a CLI runs through: the given result store
// (nil disables caching) and a progress stream feeding counts.
func NewLab(store *resultstore.Store, counts *Counts) (*impress.Lab, error) {
	return impress.NewLab(
		impress.WithResultStore(store),
		impress.WithProgress(counts.Observe),
	)
}

// Run executes the simulation under ctx, converting internal panics — a
// replay recording too short for the run, the deadlock cycle bound —
// into errors so CLIs report one clean line and exit non-zero instead of
// dumping a stack trace. Invalid input and cancellation come back as
// sim.RunContext's typed errors.
func Run(ctx context.Context, cfg sim.Config) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation failed: %v", p)
		}
	}()
	return sim.RunContext(ctx, cfg)
}

// RunLab executes cfg through the Lab with the same panic-to-error
// conversion as Run, serving and populating the Lab's store.
func RunLab(ctx context.Context, lab *impress.Lab, cfg sim.Config) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation failed: %v", p)
		}
	}()
	return lab.Run(ctx, cfg)
}

// UsageError reports whether err is invalid caller input (a bad spec or
// unknown workload) — the class CLIs map to exit code 2, distinct from
// run failures (exit 1).
func UsageError(err error) bool {
	return errors.Is(err, impress.ErrBadSpec) || errors.Is(err, impress.ErrUnknownWorkload)
}

// ReportInterrupted recognizes a cancellation error, prints the
// standard interruption notice — plus the resume hint when a result
// store was in play (cacheDir non-empty) — and reports whether err was
// one. Commands whose runs never touch the store (impress-attack,
// trace recording) pass "" and get the notice alone; store-capable
// commands interrupted without a store follow up with SuggestStore.
// CLIs call it first in their error handling and exit non-zero when it
// fires.
func ReportInterrupted(stderr io.Writer, err error, cacheDir string) bool {
	if err == nil || !errors.Is(err, impress.ErrCancelled) && !errors.Is(err, context.Canceled) {
		return false
	}
	fmt.Fprintf(stderr, "interrupted: %v\n", err)
	if cacheDir != "" {
		fmt.Fprintf(stderr, "completed simulations were saved; resume by rerunning with the same -cache-dir %s\n", cacheDir)
	}
	return true
}

// SuggestStore prints the follow-up for store-capable commands
// interrupted without one attached.
func SuggestStore(stderr io.Writer) {
	fmt.Fprintln(stderr, "no result store was attached; rerun with -cache-dir (or $IMPRESS_CACHE) to make interrupted runs resumable")
}

// ReportCacheOutcome prints the standard stderr notices after a Lab run,
// fed by the progress-stream counts: where a cache hit was served from,
// whether the run skipped warmup by restoring a cached checkpoint, and
// whether caching the fresh result failed (persistence lost, run
// unaffected). A nil store prints nothing.
func ReportCacheOutcome(stderr io.Writer, st *resultstore.Store, counts *Counts) {
	if st == nil {
		return
	}
	if counts.CacheHits > 0 {
		fmt.Fprintf(stderr, "[result served from cache %s]\n", st.Dir())
	}
	if counts.WarmupsRestored > 0 {
		fmt.Fprintf(stderr, "[warmup restored from cached checkpoint in %s]\n", st.Dir())
	}
	if st.Counters().WriteErrors > 0 {
		fmt.Fprintf(stderr, "[warning: caching the result in %s failed]\n", st.Dir())
	}
}

// PrintResult writes the standard performance summary shared by the
// sim-driving CLIs (everything below each CLI's own header lines).
func PrintResult(w io.Writer, res sim.Result, design core.Design, tracker string, trh float64) {
	m := res.Mem
	fmt.Fprintf(w, "design:          %s\n", design.Name())
	fmt.Fprintf(w, "tracker:         %s (tuned to T*=%.0f)\n", tracker, design.TrackerTRH(trh))
	fmt.Fprintf(w, "IPC (sum/core):  %.3f", res.WeightedIPCSum)
	for _, ipc := range res.IPC {
		fmt.Fprintf(w, " %.3f", ipc)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "cycles:          %d\n", res.Cycles)
	fmt.Fprintf(w, "LLC hit rate:    %.3f\n", res.LLCHitRate)
	rbTotal := m.RowHits + m.RowMisses
	if rbTotal > 0 {
		fmt.Fprintf(w, "row-buffer hits: %.3f (%d hits / %d misses / %d conflicts)\n",
			float64(m.RowHits)/float64(rbTotal), m.RowHits, m.RowMisses, m.RowConflicts)
	}
	fmt.Fprintf(w, "demand ACTs:     %d\n", m.DemandACTs)
	fmt.Fprintf(w, "mitigative ACTs: %d (%d mitigations)\n", m.MitigativeACTs, m.Mitigations)
	fmt.Fprintf(w, "synthetic ACTs:  %d (ImPress window/EACT events)\n", m.SyntheticACTs)
	fmt.Fprintf(w, "forced closures: %d (tMRO/tONMax)\n", m.ForcedClosures)
	fmt.Fprintf(w, "refreshes/RFMs:  %d / %d\n", m.Refreshes, m.RFMs)
	if m.Reads > 0 {
		avgNs := float64(m.ReadLatencySum) / float64(m.Reads) / float64(dram.TicksPerNs)
		fmt.Fprintf(w, "avg read lat:    %.1f ns\n", avgNs)
	}
	if est := res.Estimates; est != nil {
		mode := "fixed interval count"
		if est.EarlyStopped {
			mode = "early-stopped"
		}
		fmt.Fprintf(w, "sampled:         %d intervals (%s) — estimates carry 95%% CIs\n",
			est.Intervals, mode)
		fmt.Fprintf(w, "  IPC (sum):     %.3f ± %.3f (rel. %.2f%%)\n",
			est.WeightedIPC.Mean, est.WeightedIPC.HalfWidth, 100*est.WeightedIPC.RelError)
		fmt.Fprintf(w, "  ACTs/kinstr:   %.1f ± %.1f (rel. %.2f%%)\n",
			est.ACTsPerKilo.Mean, est.ACTsPerKilo.HalfWidth, 100*est.ACTsPerKilo.RelError)
	}
}
