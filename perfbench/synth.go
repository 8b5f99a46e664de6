package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"impress"
	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/experiments"
	"impress/internal/resultstore"
	"impress/internal/security"
	"impress/internal/trackers"
)

// synthTargets are the trackers synth breeds attacks against: one
// memory-controller tracker and one in-DRAM tracker.
var synthTargets = []string{"graphene", "mint"}

// searchOutcome is what must repeat exactly between searches with the
// same tracker and seed.
type searchOutcome struct {
	championKey string
	evaluated   int
	// unique counts the evaluations the security harness actually ran
	// (Runner.AttackSims).
	unique int64
}

// runSynth measures Lab.Synthesize with the default budget against each
// target, every search on a fresh store, so the security harness and the
// trackers do the work and nothing is cycle-simulated.
func runSynth(ctx context.Context, o *options, rep *report) error {
	lab, err := impress.NewLab()
	if err != nil {
		return err
	}
	stores := 0
	freshRunner := func() (*experiments.Runner, *resultstore.Store, error) {
		stores++
		st, err := resultstore.Open(filepath.Join(o.work, fmt.Sprintf("synth-store-%d", stores)))
		if err != nil {
			return nil, nil, err
		}
		r := experiments.NewRunner(experiments.QuickScale())
		r.Store = st
		r.Parallelism = workers()
		return r, st, nil
	}
	// Set-up opens a fresh store and evaluates the paper patterns every
	// search starts from, so first-use costs stay out of the timed passes.
	setup, err := medianSetup(5, func() error {
		r, _, err := freshRunner()
		if err != nil {
			return err
		}
		var specs []resultstore.AttackSpec
		for _, target := range synthTargets {
			for _, p := range attack.PaperPatternNames() {
				specs = append(specs, experiments.ZooAttackSpec(target, p))
			}
		}
		_, err = r.EvaluateAttacks(ctx, specs)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup.Seconds())

	outcomes := map[string]searchOutcome{}
	if o.corrupt {
		for _, target := range synthTargets {
			outcomes[target] = searchOutcome{championKey: "corrupted"}
		}
	}
	search := func(target string, ev *searchEvaluator) (impress.SynthReport, time.Duration, bool) {
		t0 := time.Now()
		res, err := lab.Synthesize(ctx, impress.SynthConfig{Tracker: target, Seed: o.seed, Evaluator: ev})
		d := time.Since(t0)
		if err != nil {
			rep.fail(err)
			return res, d, false
		}
		got := searchOutcome{championKey: res.ChampionKey, evaluated: res.Evaluated, unique: ev.AttackSims()}
		want, seen := outcomes[target]
		if !seen {
			outcomes[target] = got
		}
		ok := rep.check(res.ChampionKey != "" && (!seen || got == want),
			"%s seed %d: search gave %+v, an earlier one %+v", target, o.seed, got, want)
		return res, d, ok
	}

	// A round searches every target once, each on a fresh store; a pass
	// runs rounds until o.seconds have elapsed (at least one). How much
	// harness work a search or an evaluation costs depends strongly on
	// the genomes the seed breeds, so latency is an evaluation's time per
	// million simulated harness accesses, and throughput is accesses per
	// CPU second; both stay comparable across seeds. The per-layer
	// synth.round_s and synth.harness_accesses_per_search carry the
	// un-normalised search cost, so a change in harness work shows there.
	type round struct {
		wall      time.Duration
		evaluated int
		accesses  uint64
	}
	// A pass returns the latencies of its evaluations and, when traced,
	// its evaluators; an untraced pass drops each search's runner and
	// results as soon as the search ends, so that peak RSS stays that of
	// one search rather than growing with the number of rounds.
	type passResult struct {
		rounds []round
		lat    []float64
		evs    []*searchEvaluator
	}
	pass := func(tr *tracer) (passResult, error) {
		var p passResult
		deadline := time.Now().Add(o.seconds)
		for len(p.rounds) == 0 || time.Now().Before(deadline) {
			var rd round
			for _, target := range synthTargets {
				r, st, err := freshRunner()
				if err != nil {
					return p, err
				}
				// Each search starts from a collected heap, so that its
				// peak memory does not depend on where the collector
				// stood when the last one ended.
				runtime.GC()
				root := tr.begin("synth.search", 0)
				ev := newSearchEvaluator(r, st, tr, root)
				res, d, ok := search(target, ev)
				tr.end(root)
				if !ok {
					return p, nil
				}
				p.lat = append(p.lat, ev.msPerMAccess...)
				if tr != nil {
					p.evs = append(p.evs, ev)
				}
				rd.wall += d
				rd.evaluated += res.Evaluated
				rd.accesses += ev.simulated
			}
			p.rounds = append(p.rounds, rd)
		}
		return p, nil
	}

	cpu0 := processCPU()
	untraced, err := pass(nil)
	cpu := processCPU() - cpu0
	rounds := untraced.rounds
	if err != nil || len(rounds) == 0 {
		return err
	}
	lat := untraced.lat
	var evaluated int
	var accesses uint64
	var wall time.Duration
	for _, rd := range rounds {
		evaluated += rd.evaluated
		accesses += rd.accesses
		wall += rd.wall
	}
	rep.set("latency_p50_ms", quantile(lat, 0.5))
	rep.set("throughput_per_cpu_s", float64(accesses)/cpu.Seconds())
	rep.set("synth.evals_per_s", float64(evaluated)/wall.Seconds())
	rep.set("synth.round_s", wall.Seconds()/float64(len(rounds)))
	rep.set("synth.harness_accesses_per_search", float64(accesses)/float64(len(rounds)*len(synthTargets)))
	if !o.trace {
		return nil
	}

	tr := newTracer()
	prof, err := startCPUProfile(o)
	if err != nil {
		return err
	}
	traced, err := pass(tr)
	if perr := prof.stop(rep); err == nil {
		err = perr
	}
	if err != nil || len(traced.rounds) == 0 {
		return err
	}

	tlat := traced.lat
	tevs := traced.evs
	var tEvaluated int
	for _, rd := range traced.rounds {
		tEvaluated += rd.evaluated
	}
	rep.set("latency_p99_ms", quantile(tlat, 0.99))
	rep.set("latency_samples", float64(len(tlat)))
	rep.set("trace.overhead_frac", quantile(tlat, 0.5)/quantile(lat, 0.5)-1)

	searches := float64(len(tevs))
	rep.set("synth.evaluator_ms", sumMs(tr.durations("synth.evaluate"))/searches)
	rep.set("synth.self_ms", ms(tr.selfTime("synth.search"))/searches)

	var harnessRuns int64
	var hits, misses, writes int64
	var evalDs []time.Duration
	// distinct holds each distinct spec the traced searches evaluated.
	// Every round repeats the same searches, so the set, and the digest
	// and probes over it, do not depend on how many rounds fit in the pass.
	distinct := map[string]resultstore.AttackSpec{}
	results := map[string]security.Result{}
	for _, ev := range tevs {
		harnessRuns += ev.AttackSims()
		c := ev.st.Counters()
		hits += c.AttackHits
		misses += c.AttackMisses
		writes += c.AttackWrites
		maps.Copy(distinct, ev.specs)
		maps.Copy(results, ev.results)
		for _, d := range ev.took {
			evalDs = append(evalDs, d)
		}
	}
	// Sorted, because evaluation order varies with scheduling.
	keys := slices.Sorted(maps.Keys(distinct))
	specs := make([]resultstore.AttackSpec, len(keys))
	list := make([]security.Result, len(keys))
	for i, k := range keys {
		specs[i], list[i] = distinct[k], results[k]
	}
	rep.set("security.eval_ms", medianMs(evalDs))
	rep.set("synth.unique_eval_frac", float64(harnessRuns)/float64(tEvaluated))
	rep.set("resultstore.hits", float64(hits))
	rep.set("resultstore.misses", float64(misses))
	rep.set("resultstore.writes", float64(writes))

	h := fnv.New32a()
	var mitigations float64
	for i, r := range list {
		mitigations += float64(r.Mitigations)
		fmt.Fprintf(h, "%s|%+v\n", keys[i], r)
	}
	rep.set("trackers.mitigations", mitigations)
	rep.set("stats_digest", float64(h.Sum32()))
	if err := probeAttacks(ctx, o, tr, rep, specs, list); err != nil {
		return err
	}
	saveSpans(o, tr)
	return nil
}

func sumMs(ds []time.Duration) float64 {
	var s float64
	for _, d := range ds {
		s += ms(d)
	}
	return s
}

// searchEvaluator passes one search's evaluations through to an
// experiments.Runner on a fresh store. It keeps every distinct spec the
// search asked for with its result, sums the results' demand activations
// (the accesses the security harness simulated), and times each harness
// run from the runner's attack started and finished events. With a
// tracer it records a synth.evaluate span around each batch and, from
// the same events, an experiments.attack span (store lookup and harness
// run) inside it.
type searchEvaluator struct {
	*experiments.Runner
	st   *resultstore.Store
	tr   *tracer
	root int

	specs     map[string]resultstore.AttackSpec
	results   map[string]security.Result
	simulated uint64

	// batch, started, spans and took are written by the runner's progress
	// callbacks, which it serializes, and read once the batch has
	// returned.
	batch        int
	started      map[string]time.Time
	spans        map[string]int
	took         map[string]time.Duration
	msPerMAccess []float64
}

func newSearchEvaluator(r *experiments.Runner, st *resultstore.Store, tr *tracer, root int) *searchEvaluator {
	e := &searchEvaluator{Runner: r, st: st, tr: tr, root: root,
		specs: map[string]resultstore.AttackSpec{}, results: map[string]security.Result{},
		started: map[string]time.Time{}, spans: map[string]int{}, took: map[string]time.Duration{}}
	r.Progress = e.progress
	return e
}

func (e *searchEvaluator) progress(p experiments.Progress) {
	switch p.Kind {
	case experiments.ProgressAttackStarted:
		e.started[p.Key] = time.Now()
		e.spans[p.Key] = e.tr.begin("experiments.attack", e.batch)
	case experiments.ProgressAttackCacheHit:
		e.tr.end(e.spans[p.Key])
	case experiments.ProgressAttackFinished:
		e.took[p.Key] = time.Since(e.started[p.Key])
		e.tr.end(e.spans[p.Key])
	}
}

func (e *searchEvaluator) EvaluateAttacks(ctx context.Context, specs []resultstore.AttackSpec) ([]security.Result, error) {
	e.batch = e.tr.begin("synth.evaluate", e.root)
	res, err := e.Runner.EvaluateAttacks(ctx, specs)
	e.tr.end(e.batch)
	for i, r := range res {
		k := string(specs[i].Key())
		if _, seen := e.results[k]; seen {
			continue
		}
		e.specs[k] = specs[i]
		e.results[k] = r
		e.simulated += r.DemandACTs
		if d, ok := e.took[k]; ok && r.DemandACTs > 0 {
			e.msPerMAccess = append(e.msPerMAccess, ms(d)/(float64(r.DemandACTs)/1e6))
		}
	}
	return res, err
}

// timedTrackerEvery spaces the harness reruns probeAttacks makes under
// timedTracker, whose two clock reads per call make a wrapped run far
// slower than a plain one.
const timedTrackerEvery = 8

// probeAttacks measures, after the traced searches, what the runner's
// evaluation path does not expose. It puts and then gets every evaluated
// result in a store of its own, for resultstore.put_us and get_us. It
// reruns every timedTrackerEvery-th spec through security.RunContext
// with the tracker under timedTracker, for trackers.harness_share. Every
// read-back and rerun must reproduce the runner's result.
func probeAttacks(ctx context.Context, o *options, tr *tracer, rep *report, specs []resultstore.AttackSpec, results []security.Result) error {
	st, err := resultstore.Open(filepath.Join(o.work, "probe-store"))
	if err != nil {
		return err
	}
	for i, s := range specs {
		id := tr.begin("resultstore.put", 0)
		err := st.PutAttack(s, results[i])
		tr.end(id)
		rep.check(err == nil, "attack store Put of %s: %v", s.Pattern, err)
		id = tr.begin("resultstore.get", 0)
		res, ok := st.GetAttack(s)
		tr.end(id)
		rep.check(ok && res == results[i], "attack store Get of %s", s.Pattern)
	}
	rep.set("resultstore.get_us", medianMs(tr.durations("resultstore.get"))*1000)
	rep.set("resultstore.put_us", medianMs(tr.durations("resultstore.put"))*1000)

	var inTracker, harness time.Duration
	for i := 0; i < len(specs); i += timedTrackerEvery {
		cfg, pattern, err := specs[i].SecurityConfig()
		if err != nil {
			return err
		}
		build := cfg.Tracker
		cfg.Tracker = func(trh float64) trackers.Tracker {
			return timedTracker{Tracker: build(trh), in: &inTracker}
		}
		id := tr.begin("security.run.timed", 0)
		res, err := security.RunContext(ctx, cfg, pattern)
		tr.end(id)
		harness += tr.duration(id)
		rep.check(err == nil && res == results[i], "timed harness rerun of %s: %v", specs[i].Pattern, err)
	}
	if harness > 0 {
		rep.set("trackers.harness_share", float64(inTracker)/float64(harness))
	}
	return nil
}

// timedTracker adds the time spent inside a tracker's methods to in.
type timedTracker struct {
	trackers.Tracker
	in *time.Duration
}

func (t timedTracker) OnActivation(row int64, weight clm.EACT) []int64 {
	t0 := time.Now()
	out := t.Tracker.OnActivation(row, weight)
	*t.in += time.Since(t0)
	return out
}

func (t timedTracker) OnRFM() []int64 {
	t0 := time.Now()
	out := t.Tracker.OnRFM()
	*t.in += time.Since(t0)
	return out
}

func (t timedTracker) ResetWindow() {
	t0 := time.Now()
	t.Tracker.ResetWindow()
	*t.in += time.Since(t0)
}
