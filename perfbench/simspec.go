package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"impress"
	"impress/internal/core"
	"impress/internal/sim"
	"impress/internal/trace"
)

// simInputs names the workloads a simulation workload runs and its
// instruction budget (zero keeps sim.DefaultConfig's).
type simInputs struct {
	workloads   []string
	warmup, run int64
}

// specInputs are sim-spec's low-MPKI SPEC workloads: DRAM stays mostly
// idle, so the cores, the LLC and the event clock do the work.
func specInputs() simInputs {
	return simInputs{workloads: []string{"gcc", "xalancbmk", "pop2"}}
}

// configs materializes one ImPress-P + Graphene configuration per
// workload, seeded from the benchmark's seed.
func (in simInputs) configs(seed uint64) ([]sim.Config, error) {
	var cfgs []sim.Config
	for _, name := range in.workloads {
		w, err := trace.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		cfg := sim.DefaultConfig(w, core.NewDesign(core.ImpressP), sim.TrackerGraphene)
		if in.warmup > 0 {
			cfg.WarmupInstructions = in.warmup
			cfg.RunInstructions = in.run
		}
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// kinstr is the number of instructions a straight-through run of cfg
// simulates over all cores, in thousands.
func kinstr(cfg sim.Config) float64 {
	return float64(cfg.Cores) * float64(cfg.WarmupInstructions+cfg.RunInstructions) / 1000
}

// simRun is one timed Lab.Run.
type simRun struct {
	cfg  sim.Config
	res  sim.Result
	host time.Duration
}

// runSim calls Lab.Run inside a span.
func runSim(ctx context.Context, lab *impress.Lab, cfg sim.Config, tr *tracer) (simRun, error) {
	id := tr.begin("sim.run", 0)
	t0 := time.Now()
	res, err := lab.Run(ctx, cfg)
	host := time.Since(t0)
	tr.end(id)
	return simRun{cfg: cfg, res: res, host: host}, err
}

// allocMeter reads the allocation and GC counters the sim layer metrics
// are deltas of.
type allocMeter struct {
	mallocs, bytes uint64
	gcCPU, cpu     float64
}

func readAllocMeter() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return allocMeter{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64()}
}

// reportSimLayer reports allocation, GC and host-time figures of the
// sim layer over runs, given the allocation counters around them.
func reportSimLayer(rep *report, runs []simRun, before, after allocMeter) {
	var ki, kiSpec, kiStream, memReqs float64
	var host, hostSpec, hostStream time.Duration
	for _, r := range runs {
		k := kinstr(r.cfg)
		ki += k
		host += r.host
		memReqs += float64(r.res.Mem.Reads + r.res.Mem.Writes)
		if r.cfg.Workload.Stream {
			kiStream += k
			hostStream += r.host
		} else {
			kiSpec += k
			hostSpec += r.host
		}
	}
	if ki == 0 {
		return
	}
	rep.set("sim.allocs_per_kinstr", float64(after.mallocs-before.mallocs)/ki)
	rep.set("sim.bytes_per_kinstr", float64(after.bytes-before.bytes)/ki)
	if cpu := after.cpu - before.cpu; cpu > 0 {
		rep.set("sim.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu)
	}
	if memReqs > 0 {
		rep.set("sim.host_ns_per_mem_request", float64(host)/memReqs)
	}
	if hostSpec > 0 {
		rep.set("sim.kinstr_per_s_spec", kiSpec/hostSpec.Seconds())
	}
	if hostStream > 0 {
		rep.set("sim.kinstr_per_s_stream", kiStream/hostStream.Seconds())
	}
}

// runSimSpec measures Lab.Run (no store, default event clock) on the
// SPEC inputs from workers() goroutines, and checks every result against
// a cycle-accurate reference run of the same configuration.
func runSimSpec(ctx context.Context, o *options, rep *report) error {
	cfgs, err := specInputs().configs(o.seed)
	if err != nil {
		return err
	}
	// Set-up builds the Lab and runs every input once, so lazy
	// initialisation and first-touch costs stay out of the timed passes.
	var lab *impress.Lab
	setup, err := medianSetup(5, func() error {
		if lab, err = impress.NewLab(); err != nil {
			return err
		}
		for _, cfg := range cfgs {
			if _, err := lab.Run(ctx, cfg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup.Seconds())

	pass := func(tr *tracer) ([]simRun, time.Duration) {
		var (
			mu   sync.Mutex
			runs []simRun
			wg   sync.WaitGroup
		)
		deadline := time.Now().Add(o.seconds)
		t0 := time.Now()
		for g := 0; g < workers(); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i == g || time.Now().Before(deadline); i++ {
					r, err := runSim(ctx, lab, cfgs[i%len(cfgs)], tr)
					if err != nil {
						rep.fail(err)
						return
					}
					mu.Lock()
					runs = append(runs, r)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return runs, time.Since(t0)
	}

	cpu0 := processCPU()
	runs, wall := pass(nil)
	cpu := processCPU() - cpu0
	var lat []float64
	var ki float64
	for _, r := range runs {
		lat = append(lat, ms(r.host))
		ki += kinstr(r.cfg)
	}
	rep.set("latency_p50_ms", quantile(lat, 0.5))
	rep.set("throughput_per_cpu_s", ki/cpu.Seconds())
	rep.alias("sim_kinstr_per_s", ki/wall.Seconds(), "kinstr/s")

	var traced []simRun
	var before, after allocMeter
	var tr *tracer
	if o.trace {
		tr = newTracer()
		prof, err := startCPUProfile(o)
		if err != nil {
			return err
		}
		before = readAllocMeter()
		traced, _ = pass(tr)
		after = readAllocMeter()
		if err := prof.stop(rep); err != nil {
			return err
		}
	}

	// The reference runs sit outside the timed passes and set-up.
	refs := make(map[string]sim.Result, len(cfgs))
	var refList []sim.Result
	for _, cfg := range cfgs {
		ref := cfg
		ref.Clock = sim.ClockCycleAccurate
		res, err := lab.Run(ctx, ref)
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", cfg.Workload.Name, err)
		}
		if o.corrupt {
			res.Cycles++
		}
		refs[cfg.Workload.Name] = res
		refList = append(refList, res)
	}
	for _, r := range append(runs, traced...) {
		rep.check(reflect.DeepEqual(r.res, refs[r.cfg.Workload.Name]),
			"%s seed %d: event-clock result differs from the cycle-accurate reference", r.cfg.Workload.Name, r.cfg.Seed)
	}
	if !o.trace {
		return nil
	}

	var tlat []float64
	for _, r := range traced {
		tlat = append(tlat, ms(r.host))
	}
	rep.set("latency_p99_ms", quantile(tlat, 0.99))
	rep.set("latency_samples", float64(len(tlat)))
	rep.set("trace.overhead_frac", quantile(tlat, 0.5)/quantile(lat, 0.5)-1)
	reportSimLayer(rep, traced, before, after)
	reportSimCounts(rep, refList)
	rep.set("stats_digest", simDigest(refList))
	if err := probeLayers(ctx, o, specInputs(), rep); err != nil {
		return err
	}
	saveSpans(o, tr)
	return nil
}

// probeSimLayers runs one SPEC and one STREAM input of the sweep through
// Lab.Run serially for the sim-layer figures, then the layer probes.
func probeSimLayers(ctx context.Context, o *options, in simInputs, tr *tracer, rep *report) error {
	cfgs, err := in.configs(o.seed)
	if err != nil {
		return err
	}
	var pick []sim.Config
	var spec, stream bool
	for _, cfg := range cfgs {
		if cfg.Workload.Stream && !stream || !cfg.Workload.Stream && !spec {
			pick = append(pick, cfg)
			spec = spec || !cfg.Workload.Stream
			stream = stream || cfg.Workload.Stream
		}
	}
	lab, err := impress.NewLab()
	if err != nil {
		return err
	}
	before := readAllocMeter()
	var runs []simRun
	for _, cfg := range pick {
		r, err := runSim(ctx, lab, cfg, tr)
		if err != nil {
			return err
		}
		runs = append(runs, r)
	}
	reportSimLayer(rep, runs, before, readAllocMeter())
	return probeLayers(ctx, o, in, rep)
}
