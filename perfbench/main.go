// Command perfbench is the repository benchmark. It drives the sweep
// service, the simulator and the attack-synthesis loop through their own
// entry points, checks every output it gets back, and prints one JSON
// result line. Run it from the repository root through run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the workload runs once untraced and once traced, and the
// result carries the per-layer metrics. README.md lists the workloads,
// the metrics and which end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports with
// --trace 0. Each is defined for every workload (README.md says what it
// measures on each) and is never zero.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// trackerNames are the registered trackers the OnActivation probe
// drives; TestMetricListsMatchRegistry keeps it equal to
// trackers.Names().
var trackerNames = []string{"abacus", "graphene", "hydra", "mint", "mithril", "para"}

// layerMetrics are the per-layer metrics every workload reports with
// --trace 1. A layer that does no work on a workload reports zero.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"error_rate", "ratio"},
		{"latency_p99_ms", "ms"},
		{"latency_samples", "count"},
		{"trace.overhead_frac", "ratio"},
		{"stats_digest", "hash"},

		{"labd.submit_ms", "ms"},
		{"labd.queue_wait_ms", "ms"},
		{"labd.tables_ms", "ms"},
		{"labd.events_dropped", "count"},
		{"labd.heap_per_job_kb", "KB"},

		{"experiments.spec_ms_p50", "ms"},
		{"experiments.spec_ms_p99", "ms"},
		{"experiments.worker_idle_frac", "ratio"},
		{"experiments.simulated", "count"},
		{"experiments.cache_hits", "count"},

		{"resultstore.get_us", "us"},
		{"resultstore.put_us", "us"},
		{"resultstore.checkpoint_put_us", "us"},
		{"resultstore.hits", "count"},
		{"resultstore.misses", "count"},
		{"resultstore.writes", "count"},
		{"resultstore.write_errors", "count"},

		{"sim.allocs_per_kinstr", "allocs/kinstr"},
		{"sim.bytes_per_kinstr", "B/kinstr"},
		{"sim.gc_cpu_frac", "ratio"},
		{"sim.host_ns_per_mem_request", "ns"},
		{"sim.kinstr_per_s_spec", "kinstr/s"},
		{"sim.kinstr_per_s_stream", "kinstr/s"},
		{"sim.cycles", "cycles"},

		{"runtime.gc_share", "ratio"},

		{"memctrl.reads", "count"},
		{"memctrl.row_hit_rate", "ratio"},
		{"memctrl.demand_acts", "count"},
		{"memctrl.mitigative_acts", "count"},
		{"cache.llc_hit_rate", "ratio"},
		{"core.synthetic_acts", "count"},
		{"trackers.mitigations", "count"},

		{"security.eval_ms", "ms"},
		{"synth.evaluator_ms", "ms"},
		{"synth.self_ms", "ms"},
		{"synth.unique_eval_frac", "ratio"},
		{"synth.round_s", "s"},
		{"synth.evals_per_s", "1/s"},
		{"synth.harness_accesses_per_search", "count"},
		{"trackers.harness_share", "ratio"},

		{"cache.access_ns", "ns/op"},
		{"cache.access_allocs", "allocs/op"},
		{"cache.fill_ns", "ns/op"},
		{"cache.fill_allocs", "allocs/op"},
		{"memctrl.push_ns", "ns/op"},
		{"memctrl.push_allocs", "allocs/op"},
		{"memctrl.tick_ns", "ns/op"},
		{"memctrl.tick_allocs", "allocs/op"},
		{"trace.generator_next_ns", "ns/op"},
		{"trace.generator_next_allocs", "allocs/op"},
		{"trace.reader_next_ns", "ns/op"},
		{"trace.reader_next_allocs", "allocs/op"},
		{"sim.checkpoint_encode_ns", "ns/op"},
		{"sim.checkpoint_encode_allocs", "allocs/op"},
	}
	for _, layer := range cpuShareLayers {
		defs = append(defs, metricDef{layer + ".cpu_share", "ratio"})
	}
	for _, name := range trackerNames {
		defs = append(defs,
			metricDef{"trackers." + name + ".on_activation_ns", "ns/op"},
			metricDef{"trackers." + name + ".on_activation_allocs", "allocs/op"})
	}
	return defs
}()

// options are the command-line arguments shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// work is a private scratch directory (result stores, recorded
	// traces, profiles) inside the checkout, removed on exit.
	work string
	// golden is the expected fig13 table the sweeps are checked against.
	golden string
	// corrupt makes every workload check against a wrong expectation
	// (golden table, reference result, earlier champion); tests use it
	// to show that a wrong output counts as a failure.
	corrupt bool
}

// workloads maps each workload name to the function that runs it. That
// function returns an error only when the benchmark cannot run at all; a
// wrong or failed operation is counted in the report instead.
var workloads = map[string]func(context.Context, *options, *report) error{
	"sweep-cold": runSweepCold,
	"sweep-warm": runSweepWarm,
	"sim-spec":   runSimSpec,
	"synth":      runSynth,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, false); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer, corrupt bool) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: sweep-cold, sweep-warm, sim-spec or synth")
	seed := fs.Uint64("seed", 1, "seed for the workload's generated inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "1 runs the workload untraced and traced and reports per-layer metrics")
	golden := fs.String("golden", filepath.Join("internal", "experiments", "testdata", "golden", "fig13.txt"),
		"expected fig13 table for the sweep workloads")
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if _, err := os.Stat(*golden); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	base := os.Getenv("PERFBENCH_WORK")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	o := &options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		work:     work,
		golden:   *golden,
		corrupt:  corrupt,
	}
	rep := newReport()
	if err := drive(context.Background(), o, rep); err != nil {
		return err
	}
	rep.set("peak_rss_mb", peakRSSMB())
	rep.finish()
	return rep.write(stdout, o.trace)
}

// report collects the checks and metric values of one benchmark run.
type report struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	units     map[string]string
	values    map[string]float64
	// aliases are headline figures printed under the names the project's
	// documents use (sweep_s, sim_kinstr_per_s, ...); they are not part
	// of the JSON result.
	aliases []string
}

func newReport() *report {
	r := &report{units: map[string]string{}, values: map[string]float64{}}
	for _, defs := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range defs {
			r.units[d.name] = d.unit
		}
	}
	return r
}

// check counts one attempted operation, and a failure when ok is false.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// fail counts an operation that could not complete.
func (r *report) fail(err error) { r.check(false, "%v", err) }

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.units[name]; !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.values[name] = v
}

func (r *report) alias(name string, v float64, unit string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.aliases = append(r.aliases, fmt.Sprintf("%s %s %s", name, strconv.FormatFloat(v, 'g', -1, 64), unit))
}

func (r *report) finish() {
	if r.attempted > 0 {
		r.set("error_rate", float64(r.failed)/float64(r.attempted))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints every measured metric by name with its unit, then the
// JSON result line carrying the end-to-end (untraced) or per-layer
// (traced) set.
func (r *report) write(w io.Writer, traced bool) error {
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s %s\n", name, strconv.FormatFloat(r.values[name], 'g', -1, 64), r.units[name])
	}
	for _, line := range r.aliases {
		fmt.Fprintln(w, line)
	}
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; zero for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// workers is the machine's parallelism: labd's worker count and the
// number of client goroutines.
func workers() int { return runtime.NumCPU() }

// medianSetup runs a workload's set-up fn reps times and returns the
// median duration, so setup_s is not one sample; fn's last result is
// kept by the caller through its closure.
func medianSetup(reps int, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(quantile(ds, 0.5)), nil
}

// processCPU is the CPU time the process has used so far, user and
// system. Throughput is reported per CPU second rather than per wall
// second: on a shared machine the hypervisor steals a varying share of
// each wall second, which the process is not charged for.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
