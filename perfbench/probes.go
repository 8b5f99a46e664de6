package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"impress"
	"impress/internal/cache"
	"impress/internal/clm"
	"impress/internal/dram"
	"impress/internal/memctrl"
	"impress/internal/sim"
	"impress/internal/stats"
	"impress/internal/trace"
	"impress/internal/trackers"
)

// probeRequestsPerCore is how many requests each simulated core's
// generator contributes to the layer probes.
const probeRequestsPerCore = 4000

// minTrackerOps is the least number of OnActivation calls a tracker
// probe times; the captured ACT rows are replayed until it is reached.
const minTrackerOps = 200_000

// opMeter accumulates time and heap allocations over timed batches of
// one operation.
type opMeter struct {
	elapsed time.Duration
	allocs  uint64
	ops     int
}

// measure times fn, which performs and returns some number of
// operations. Allocation counts come from runtime.MemStats, read
// outside the timed interval.
func (m *opMeter) measure(fn func() int) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	n := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	m.elapsed += d
	m.allocs += b.Mallocs - a.Mallocs
	m.ops += n
}

func (m *opMeter) report(rep *report, prefix string) {
	if m.ops == 0 {
		return
	}
	rep.set(prefix+"_ns", float64(m.elapsed)/float64(m.ops))
	rep.set(prefix+"_allocs", float64(m.allocs)/float64(m.ops))
}

// act is one demand activation captured on a channel's command bus.
type act struct {
	bank int // channel * banks per channel + bank
	row  int64
}

// probeLayers drives each simulator layer in isolation with the
// workload's own inputs: the generators' requests feed the trace and
// LLC probes, the LLC's miss stream feeds the memory controller, the
// ACT rows the controller sends feed every registered tracker, and a
// run's post-warmup checkpoint feeds the checkpoint codec.
func probeLayers(ctx context.Context, o *options, in simInputs, rep *report) error {
	cfgs, err := in.configs(o.seed)
	if err != nil {
		return err
	}
	cfg := cfgs[0]

	// Generator.Next, round-robin over every core of every workload.
	var gens []trace.Generator
	for _, c := range cfgs {
		for core := 0; core < c.Cores; core++ {
			gens = append(gens, c.Workload.NewGenerator(core, c.Seed))
		}
	}
	reqs := make([]trace.Request, 0, len(gens)*probeRequestsPerCore)
	var gen opMeter
	gen.measure(func() int {
		for i := 0; i < probeRequestsPerCore; i++ {
			for _, g := range gens {
				reqs = append(reqs, g.Next())
			}
		}
		return len(reqs)
	})
	gen.report(rep, "trace.generator_next")

	if err := probeReader(ctx, o, cfgs, rep); err != nil {
		return err
	}
	stream := probeCache(cfg.LLC, reqs, rep)
	acts := probeMemctrl(cfg, stream, rep)
	probeTrackers(cfg, acts, rep)
	return probeCheckpoint(ctx, cfg, rep)
}

// probeReader records each workload to a trace file, then times the
// streaming reader's Next over the recording and checks it replays the
// generator's requests.
func probeReader(ctx context.Context, o *options, cfgs []sim.Config, rep *report) error {
	var m opMeter
	for _, c := range cfgs {
		path := filepath.Join(o.work, c.Workload.Name+".trace")
		if err := trace.RecordFile(ctx, c.Workload, c.Cores, probeRequestsPerCore, c.Seed, path); err != nil {
			return err
		}
		rd, err := trace.OpenReader(path)
		if err != nil {
			return err
		}
		w, err := rd.Workload()
		if err != nil {
			rd.Close()
			return err
		}
		var gens []trace.Generator
		for core := 0; core < c.Cores; core++ {
			gens = append(gens, w.NewGenerator(core, c.Seed))
		}
		got := make([]trace.Request, 0, c.Cores*probeRequestsPerCore)
		m.measure(func() int {
			for _, g := range gens {
				for i := 0; i < probeRequestsPerCore; i++ {
					got = append(got, g.Next())
				}
			}
			return len(got)
		})
		rd.Close()
		same := true
		for core := 0; core < c.Cores && same; core++ {
			live := c.Workload.NewGenerator(core, c.Seed)
			for i := 0; i < probeRequestsPerCore; i++ {
				if live.Next() != got[core*probeRequestsPerCore+i] {
					same = false
					break
				}
			}
		}
		rep.check(same, "trace replay of %s differs from its generator", c.Workload.Name)
	}
	m.report(rep, "trace.reader_next")
	return nil
}

// probeCache runs the requests through an LLC once to find the miss
// stream (misses as reads, dirty victims as writes, in program order),
// then times Access over the requests on the warmed cache and Fill over
// the misses on a fresh one.
func probeCache(cfg cache.Config, reqs []trace.Request, rep *report) []trace.Request {
	c := cache.New(cfg)
	var misses, stream []trace.Request
	for _, r := range reqs {
		if r.Uncached {
			stream = append(stream, r)
			continue
		}
		if c.Access(r.Addr, r.Write) {
			continue
		}
		misses = append(misses, r)
		stream = append(stream, trace.Request{Addr: r.Addr})
		if v, ok := c.Fill(r.Addr, r.Write); ok && v.Dirty {
			stream = append(stream, trace.Request{Addr: v.Addr, Write: true})
		}
	}

	var access opMeter
	access.measure(func() int {
		for _, r := range reqs {
			c.Access(r.Addr, r.Write)
		}
		return len(reqs)
	})
	access.report(rep, "cache.access")

	fresh := cache.New(cfg)
	var fill opMeter
	fill.measure(func() int {
		for _, r := range misses {
			fresh.Fill(r.Addr, r.Write)
		}
		return len(misses)
	})
	fill.report(rep, "cache.fill")
	return stream
}

// probeMemctrl pushes the miss stream into a controller configured like
// the simulator's, as far as its queues admit, alternating with batches of
// DRAM-clock ticks, and captures every demand ACT through a channel
// observer.
func probeMemctrl(cfg sim.Config, stream []trace.Request, rep *report) []act {
	info, ok := trackers.ByName(string(cfg.Tracker))
	if !ok {
		panic(fmt.Sprintf("perfbench: unknown tracker %q", cfg.Tracker))
	}
	rng := stats.NewRand(cfg.Seed)
	trh := cfg.Design.TrackerTRH(cfg.DesignTRH)
	mcCfg := memctrl.DefaultConfig(cfg.Design, func(int) trackers.Tracker { return info.New(trh, cfg.RFMTH, rng) }, cfg.RFMTH)
	mc := memctrl.New(mcCfg)
	banks := mcCfg.Mapper.BanksPerChannel
	acts := make([]act, 0, 2*len(stream)+1024)
	for ch := 0; ch < mcCfg.Mapper.Channels; ch++ {
		mc.Channel(ch).AddObserver(dram.ObserverFunc(func(ev dram.CommandEvent) {
			if ev.Cmd == dram.CmdACT && !ev.Mitigative {
				acts = append(acts, act{bank: ch*banks + ev.Bank, row: ev.Row})
			}
		}))
	}
	reqs := make([]memctrl.Request, len(stream))
	for i, r := range stream {
		reqs[i] = memctrl.Request{Addr: r.Addr, Write: r.Write, Loc: mc.Map(r.Addr)}
	}

	// The controller's clock: DRAM cycles are 3 simulator ticks.
	const dramTicks = 3
	const ticksPerBatch = 16
	var push, tick opMeter
	now := dram.Tick(0)
	tickBatch := func() int {
		for k := 0; k < ticksPerBatch; k++ {
			mc.Tick(now)
			now += dramTicks
		}
		return ticksPerBatch
	}
	for i := 0; i < len(reqs); {
		push.measure(func() int {
			start := i
			for i < len(reqs) && mc.CanPush(reqs[i].Loc, reqs[i].Write) {
				mc.Push(now, &reqs[i])
				i++
			}
			return i - start
		})
		tick.measure(tickBatch)
	}
	for drain := 0; mc.PendingReads() > 0 && drain < 1_000_000; drain++ {
		tick.measure(tickBatch)
	}
	push.report(rep, "memctrl.push")
	tick.report(rep, "memctrl.tick")
	return acts
}

// probeTrackers replays the captured ACT rows into per-bank instances of
// every registered tracker.
func probeTrackers(cfg sim.Config, acts []act, rep *report) {
	if len(acts) == 0 {
		return
	}
	nbanks := 0
	for _, a := range acts {
		nbanks = max(nbanks, a.bank+1)
	}
	trh := cfg.Design.TrackerTRH(cfg.DesignTRH)
	for _, name := range trackerNames {
		info, ok := trackers.ByName(name)
		if !ok {
			continue
		}
		rng := stats.NewRand(cfg.Seed)
		banks := make([]trackers.Tracker, nbanks)
		for b := range banks {
			banks[b] = info.New(trh, cfg.RFMTH, rng)
		}
		var m opMeter
		m.measure(func() int {
			n := 0
			for n < minTrackerOps {
				for _, a := range acts {
					banks[a.bank].OnActivation(a.row, clm.One)
				}
				n += len(acts)
			}
			return n
		})
		m.report(rep, "trackers."+name+".on_activation")
	}
}

// probeCheckpoint captures the post-warmup checkpoint a Lab.Run hands
// to OnCheckpoint and times re-encoding it.
func probeCheckpoint(ctx context.Context, cfg sim.Config, rep *report) error {
	var payload []byte
	cfg.OnCheckpoint = func(b []byte) { payload = append([]byte(nil), b...) }
	lab, err := impress.NewLab()
	if err != nil {
		return err
	}
	if _, err := lab.Run(ctx, cfg); err != nil {
		return err
	}
	if !rep.check(payload != nil, "%s: no checkpoint handed to OnCheckpoint", cfg.Workload.Name) {
		return nil
	}
	ck, err := sim.DecodeCheckpoint(payload)
	if err != nil {
		return err
	}
	const encodes = 5
	var m opMeter
	var encErr error
	m.measure(func() int {
		for i := 0; i < encodes; i++ {
			if _, err := ck.Encode(); err != nil {
				encErr = err
			}
		}
		return encodes
	})
	if encErr != nil {
		return encErr
	}
	m.report(rep, "sim.checkpoint_encode")
	return nil
}
