package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"impress/internal/experiments"
	"impress/internal/labd"
	"impress/internal/resultstore"
	"impress/internal/sim"
)

// fig13Request is the sweep both sweep workloads submit: QuickScale
// fig13, 66 specs. It is a fixed input so the golden table can check it;
// the seed does not apply.
var fig13Request = labd.SweepRequest{Scale: "quick", Only: []string{"fig13"}}

// daemon is an in-process impress-labd: the sweep server over a result
// store directory, served on a loopback port, and a client for it.
type daemon struct {
	srv    *labd.Server
	hs     *http.Server
	served chan struct{}
	client *labd.Client
}

func startDaemon(ctx context.Context, storeDir string) (*daemon, error) {
	srv, err := labd.New(labd.Config{CacheDir: storeDir, Workers: workers()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		client: labd.NewClient("http://" + ln.Addr().String()),
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	if _, err := d.client.Health(ctx); err != nil {
		_ = d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the sweep server, closes the HTTP server and waits until
// its serving goroutine has returned.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := errors.Join(d.srv.Shutdown(ctx), d.hs.Shutdown(ctx))
	<-d.served
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return err
}

// sweepSample is one submission's client-side timeline.
type sweepSample struct {
	total     time.Duration // submit to tables
	submit    time.Duration
	queueWait time.Duration // submit to the first spec-started event
	tables    time.Duration
	specMs    []float64 // started -> finished per simulated spec
	dropped   int64
	job       labd.Job
}

// sweepOnce submits fig13Request, watches the job to completion,
// fetches its tables and checks them: fig13 must match the golden bytes,
// the progress counters must balance, and a cold sweep must simulate
// every spec while a warm one simulates none.
func sweepOnce(ctx context.Context, d *daemon, golden string, cold bool, tr *tracer, rep *report) (sweepSample, bool) {
	var s sweepSample
	root := tr.begin("sweep", 0)
	defer tr.end(root)
	t0 := time.Now()

	id := tr.begin("labd.submit", root)
	job, err := d.client.Submit(ctx, fig13Request)
	tr.end(id)
	s.submit = time.Since(t0)
	if err != nil {
		rep.fail(err)
		return s, false
	}

	started := map[string]time.Time{}
	id = tr.begin("labd.watch", root)
	final, err := d.client.Watch(ctx, job.ID, 0, func(e labd.Event) {
		now := time.Now()
		switch e.Kind {
		case "started":
			if len(started) == 0 {
				s.queueWait = now.Sub(t0)
			}
			started[e.Key] = now
		case "finished":
			if t, ok := started[e.Key]; ok {
				s.specMs = append(s.specMs, ms(now.Sub(t)))
			}
		case labd.KindLagged:
			s.dropped += e.Dropped
		}
	})
	tr.end(id)
	if err != nil {
		rep.fail(err)
		return s, false
	}

	tStart := time.Now()
	id = tr.begin("labd.tables", root)
	tables, err := d.client.Tables(ctx, job.ID)
	tr.end(id)
	s.tables = time.Since(tStart)
	s.total = time.Since(t0)
	s.job = final
	if err != nil {
		rep.fail(err)
		return s, false
	}

	var text string
	for _, t := range tables.Tables {
		if t.ID == "fig13" {
			text = t.Text
		}
	}
	ok := final.State == labd.StateDone && text == golden &&
		final.Started == final.CacheHits+final.Simulated
	if cold {
		ok = ok && final.Simulated == int64(final.Specs)
	} else {
		ok = ok && final.Simulated == 0
	}
	return s, rep.check(ok, "%s: state %s, fig13 matches golden %v, specs %d started %d cache hits %d simulated %d",
		job.ID, final.State, text == golden, final.Specs, final.Started, final.CacheHits, final.Simulated)
}

// analyticalSweep submits a job rendering the paper's two configuration
// tables, which need no simulation, and waits for its tables.
func analyticalSweep(ctx context.Context, d *daemon) error {
	job, err := d.client.Submit(ctx, labd.SweepRequest{Analytical: true, Only: []string{"table1", "table2"}})
	if err != nil {
		return err
	}
	final, err := d.client.Watch(ctx, job.ID, 0, nil)
	if err != nil {
		return err
	}
	tables, err := d.client.Tables(ctx, job.ID)
	if err != nil {
		return err
	}
	if final.State != labd.StateDone || len(tables.Tables) == 0 {
		return fmt.Errorf("analytical sweep %s ended %s with %d tables", job.ID, final.State, len(tables.Tables))
	}
	return nil
}

func readGolden(o *options) (string, error) {
	data, err := os.ReadFile(o.golden)
	if o.corrupt {
		data = append(data, "corrupted\n"...)
	}
	return string(data), err
}

// runSweepCold measures one client submitting fig13 to a daemon over an
// empty store: every spec simulates, and the store is only written.
func runSweepCold(ctx context.Context, o *options, rep *report) error {
	golden, err := readGolden(o)
	if err != nil {
		return err
	}
	daemons := 0
	fresh := func() (*daemon, error) {
		daemons++
		return startDaemon(ctx, filepath.Join(o.work, fmt.Sprintf("cold-store-%d", daemons)))
	}
	// Set-up starts a daemon over an empty store and runs one
	// simulation-free job through it, so the daemon's code paths are warm
	// before the timed sweeps, each on a daemon started the same way.
	setup, err := medianSetup(25, func() error {
		d, err := fresh()
		if err != nil {
			return err
		}
		return errors.Join(analyticalSweep(ctx, d), d.stop())
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup.Seconds())

	// pass runs cold sweeps, each on a fresh daemon, until o.seconds
	// have elapsed (at least one). The last daemon is returned still
	// running, so the traced pass can probe its store.
	pass := func(tr *tracer) ([]sweepSample, *daemon, error) {
		var samples []sweepSample
		deadline := time.Now().Add(o.seconds)
		var d *daemon
		for len(samples) == 0 || time.Now().Before(deadline) {
			if d != nil {
				if err := d.stop(); err != nil {
					return nil, nil, err
				}
			}
			if d, err = fresh(); err != nil {
				return nil, nil, err
			}
			s, ok := sweepOnce(ctx, d, golden, true, tr, rep)
			if !ok {
				break
			}
			samples = append(samples, s)
		}
		return samples, d, nil
	}

	cpu0 := processCPU()
	samples, d, err := pass(nil)
	cpu := processCPU() - cpu0
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return d.stop()
	}
	p50 := quantile(sweepTotals(samples), 0.5)
	specs := float64(samples[0].job.Specs * len(samples))
	rep.set("latency_p50_ms", p50)
	rep.set("throughput_per_cpu_s", specs/cpu.Seconds())
	rep.alias("sweep_s", p50/1000, "s")
	if !o.trace {
		return d.stop()
	}
	if err := d.stop(); err != nil {
		return err
	}

	tr := newTracer()
	prof, err := startCPUProfile(o)
	if err != nil {
		return err
	}
	traced, d, err := pass(tr)
	if perr := prof.stop(rep); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	defer d.stop()
	if len(traced) == 0 {
		return nil
	}
	reportSweepLayers(rep, traced, tr, samples)
	last := traced[len(traced)-1]
	spec := 0.0
	for _, v := range last.specMs {
		spec += v
	}
	rep.set("experiments.worker_idle_frac", 1-spec/(float64(workers())*ms(last.total)))
	reportCounters(rep, d.srv.Store())
	if err := probeStore(o, d.srv.Store(), tr, rep, true); err != nil {
		return err
	}
	if err := probeSimLayers(ctx, o, quickScaleInputs(), tr, rep); err != nil {
		return err
	}
	saveSpans(o, tr)
	return nil
}

// runSweepWarm measures a closed loop of workers() clients resubmitting
// fig13 to a daemon whose store was filled during set-up, so nothing
// simulates: the result store's Get path, table rendering, and labd's
// HTTP, event and job-table paths do the work. The loop runs a fixed
// number of submissions so the job table ends at the same size on every
// commit.
func runSweepWarm(ctx context.Context, o *options, rep *report) error {
	golden, err := readGolden(o)
	if err != nil {
		return err
	}
	// Set-up starts the daemon and fills its store with one cold sweep;
	// the fill is too long to repeat, so setup_s is one sample.
	t0 := time.Now()
	d, err := startDaemon(ctx, filepath.Join(o.work, "warm-store"))
	if err != nil {
		return err
	}
	defer d.stop()
	if _, ok := sweepOnce(ctx, d, golden, true, nil, rep); !ok {
		return nil
	}
	rep.set("setup_s", time.Since(t0).Seconds())

	submissions := warmSubmissions(o.seconds)
	pass := func(tr *tracer) ([]sweepSample, time.Duration) {
		var (
			mu      sync.Mutex
			samples []sweepSample
			next    int
			wg      sync.WaitGroup
		)
		t0 := time.Now()
		for c := 0; c < workers(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if next == submissions {
						mu.Unlock()
						return
					}
					next++
					mu.Unlock()
					s, ok := sweepOnce(ctx, d, golden, false, tr, rep)
					if ok {
						mu.Lock()
						samples = append(samples, s)
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		return samples, time.Since(t0)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	samples, wall := pass(nil)
	cpu := processCPU() - cpu0
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(samples) == 0 {
		return nil
	}
	totals := sweepTotals(samples)
	rep.set("latency_p50_ms", quantile(totals, 0.5))
	rep.set("latency_p99_ms", quantile(totals, 0.99))
	rep.set("latency_samples", float64(len(totals)))
	rep.set("throughput_per_cpu_s", float64(len(samples))/cpu.Seconds())
	rep.set("labd.heap_per_job_kb", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(submissions)/1024)
	rep.alias("latency_p99_ms", quantile(totals, 0.99), "ms")
	rep.alias("latency_samples", float64(len(totals)), "count")
	rep.alias("sweeps_per_s", float64(len(samples))/wall.Seconds(), "1/s")
	if !o.trace {
		return nil
	}

	tr := newTracer()
	prof, err := startCPUProfile(o)
	if err != nil {
		return err
	}
	traced, _ := pass(tr)
	if err := prof.stop(rep); err != nil {
		return err
	}
	if len(traced) == 0 {
		return nil
	}
	reportSweepLayers(rep, traced, tr, samples)
	reportCounters(rep, d.srv.Store())
	if err := probeStore(o, d.srv.Store(), tr, rep, false); err != nil {
		return err
	}
	saveSpans(o, tr)
	return nil
}

// warmSubmissions is the fixed submission count of a sweep-warm pass:
// 100 per measured second, enough samples for a p99 with ten beyond it
// at the default 10 s.
func warmSubmissions(d time.Duration) int {
	return max(int(math.Round(d.Seconds()*100)), 1)
}

func sweepTotals(samples []sweepSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.total)
	}
	return out
}

// reportSweepLayers reports the labd and experiments metrics of a traced
// sweep pass and the tracing overhead against the untraced pass.
func reportSweepLayers(rep *report, traced []sweepSample, tr *tracer, untraced []sweepSample) {
	var queue, specMs []float64
	var dropped int64
	for _, s := range traced {
		queue = append(queue, ms(s.queueWait))
		specMs = append(specMs, s.specMs...)
		dropped += s.dropped
	}
	rep.set("labd.submit_ms", medianMs(tr.durations("labd.submit")))
	rep.set("labd.queue_wait_ms", quantile(queue, 0.5))
	rep.set("labd.tables_ms", medianMs(tr.durations("labd.tables")))
	rep.set("labd.events_dropped", float64(dropped))
	rep.set("experiments.spec_ms_p50", quantile(specMs, 0.5))
	rep.set("experiments.spec_ms_p99", quantile(specMs, 0.99))
	last := traced[len(traced)-1].job
	rep.set("experiments.simulated", float64(last.Simulated))
	rep.set("experiments.cache_hits", float64(last.CacheHits))
	totals := sweepTotals(traced)
	rep.set("latency_p99_ms", quantile(totals, 0.99))
	rep.set("latency_samples", float64(len(totals)))
	rep.set("trace.overhead_frac", quantile(totals, 0.5)/quantile(sweepTotals(untraced), 0.5)-1)
}

func reportCounters(rep *report, st *resultstore.Store) {
	c := st.Counters()
	rep.set("resultstore.hits", float64(c.Hits))
	rep.set("resultstore.misses", float64(c.Misses))
	rep.set("resultstore.writes", float64(c.Writes))
	rep.set("resultstore.write_errors", float64(c.WriteErrors))
}

// probeStore times Get of every result in the daemon's store, and, for
// the cold sweep, Put of every result and checkpoint into a second
// store. It also reports the simulated statistics of the cold sweep's
// results (a warm sweep simulates nothing, so its counts stay zero)
// and a digest of them that must repeat exactly from run to run.
func probeStore(o *options, st *resultstore.Store, tr *tracer, rep *report, cold bool) error {
	entries, err := st.Entries()
	if err != nil {
		return err
	}
	probe, err := resultstore.Open(filepath.Join(o.work, "probe-store"))
	if err != nil {
		return err
	}
	var results []sim.Result
	for _, e := range entries {
		switch e.Kind {
		case "":
			id := tr.begin("resultstore.get", 0)
			res, ok := st.Get(e.Spec)
			tr.end(id)
			rep.check(ok && res.Cycles == e.Result.Cycles, "store Get of %s", e.Key)
			results = append(results, res)
			if cold {
				id = tr.begin("resultstore.put", 0)
				err := probe.Put(e.Spec, res)
				tr.end(id)
				rep.check(err == nil, "store Put of %s: %v", e.Key, err)
			}
		case resultstore.KindCheckpoint:
			payload, ok := st.GetCheckpoint(e.Spec)
			if !rep.check(ok, "checkpoint Get of %s", e.Key) || !cold {
				continue
			}
			id := tr.begin("resultstore.checkpoint_put", 0)
			err := probe.PutCheckpoint(e.Spec, payload)
			tr.end(id)
			rep.check(err == nil, "checkpoint Put of %s: %v", e.Key, err)
		}
	}
	us := func(name string) float64 { return medianMs(tr.durations(name)) * 1000 }
	rep.set("resultstore.get_us", us("resultstore.get"))
	rep.set("resultstore.put_us", us("resultstore.put"))
	rep.set("resultstore.checkpoint_put_us", us("resultstore.checkpoint_put"))
	rep.set("stats_digest", simDigest(results))
	if cold {
		reportSimCounts(rep, results)
	}
	return nil
}

// reportSimCounts reports the work the simulated memory system did over
// results, from the simulator's own counters.
func reportSimCounts(rep *report, results []sim.Result) {
	var reads, hits, misses, conflicts, demand, mitigative, synthetic, mitigations float64
	var cycles, llc float64
	for _, r := range results {
		m := r.Mem
		reads += float64(m.Reads)
		hits += float64(m.RowHits)
		misses += float64(m.RowMisses)
		conflicts += float64(m.RowConflicts)
		demand += float64(m.DemandACTs)
		mitigative += float64(m.MitigativeACTs)
		synthetic += float64(m.SyntheticACTs)
		mitigations += float64(m.Mitigations)
		cycles += float64(r.Cycles)
		llc += r.LLCHitRate
	}
	rep.set("memctrl.reads", reads)
	if acc := hits + misses + conflicts; acc > 0 {
		rep.set("memctrl.row_hit_rate", hits/acc)
	}
	rep.set("memctrl.demand_acts", demand)
	rep.set("memctrl.mitigative_acts", mitigative)
	rep.set("core.synthetic_acts", synthetic)
	rep.set("trackers.mitigations", mitigations)
	rep.set("sim.cycles", cycles)
	if len(results) > 0 {
		rep.set("cache.llc_hit_rate", llc/float64(len(results)))
	}
}

// simDigest folds the simulated statistics of results into a 32-bit
// FNV-1a hash (exact in a float64), so a speed-only change can show it
// moved no simulated statistic.
func simDigest(results []sim.Result) float64 {
	h := fnv.New32a()
	for _, r := range results {
		fmt.Fprintf(h, "%s|%d|%+v|%v|%v\n", r.Workload, r.Cycles, r.Mem, r.IPC, r.LLCHitRate)
	}
	return float64(h.Sum32())
}

// quickScaleInputs is the sweep's simulation input: the QuickScale
// workloads at the QuickScale instruction budget.
func quickScaleInputs() simInputs {
	sc := experiments.QuickScale()
	return simInputs{workloads: sc.Workloads, warmup: sc.Warmup, run: sc.Run}
}
