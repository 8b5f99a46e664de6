package impress_test

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"impress"
)

// These tests exercise the public facade end to end: a downstream user of
// the library should be able to reproduce the paper's headline claims
// through the impress package alone.

// runSim runs cfg through a default Lab, failing tb on error.
func runSim(tb testing.TB, cfg impress.SimConfig) impress.SimResult {
	tb.Helper()
	res, err := newLab(tb).Run(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func newLab(tb testing.TB, opts ...impress.LabOption) *impress.Lab {
	tb.Helper()
	lab, err := impress.NewLab(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return lab
}

func TestPublicModelAPI(t *testing.T) {
	tm := impress.DDR5()
	model := impress.NewModel(impress.AlphaLongDuration)
	if got := model.AccessTCL(tm.TRAS); got != 1 {
		t.Fatalf("AccessTCL(tRAS) = %v", got)
	}
	calc := impress.NewEACTCalculator(tm)
	if got := calc.FromTON(tm.TRAS + tm.TRC); got != 2*impress.One {
		t.Fatalf("EACT(tRAS+tRC) = %v, want 2", got)
	}
	if impress.FracBitsEffectiveThreshold(7) != 1 {
		t.Fatal("7 fractional bits must be exact")
	}
}

func TestPublicAttackAPIHeadline(t *testing.T) {
	tm := impress.DDR5()
	const trh = 4000
	run := func(kind impress.DesignKind) float64 {
		cfg := impress.AttackConfig{
			Design:    impress.NewDesign(kind),
			DesignTRH: trh,
			AlphaTrue: impress.AlphaLongDuration,
			Tracker:   func(t float64) impress.Tracker { return impress.NewGraphene(t) },
		}
		res, err := newLab(t).Attack(context.Background(), cfg, &impress.RowPressPattern{
			Row: 1 << 20, TON: tm.TREFI, Timings: tm,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxDamage
	}
	broken := run(impress.NoRP)
	fixed := run(impress.ImpressP)
	if broken < trh {
		t.Fatalf("Row-Press should break the unprotected tracker (damage %v)", broken)
	}
	if fixed >= trh {
		t.Fatalf("ImPress-P should contain Row-Press (damage %v)", fixed)
	}
	if broken/fixed < 10 {
		t.Fatalf("expected an order-of-magnitude contrast: %v vs %v", broken, fixed)
	}
}

func TestPublicDesignThresholds(t *testing.T) {
	const trh = 4000
	if got := impress.NewDesign(impress.ImpressP).TrackerTRH(trh); got != trh {
		t.Fatalf("ImPress-P must keep TRH, got %v", got)
	}
	if got := impress.NewDesign(impress.ImpressN).TrackerTRH(trh); got != trh/2 {
		t.Fatalf("ImPress-N at alpha=1 must halve TRH, got %v", got)
	}
}

func TestPublicWorkloads(t *testing.T) {
	if n := len(impress.Workloads()); n != 20 {
		t.Fatalf("workloads = %d, want 20", n)
	}
	if _, err := impress.WorkloadByName("triad"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSimAPI(t *testing.T) {
	w, err := impress.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := impress.DefaultSimConfig(w, impress.NewDesign(impress.ImpressP), impress.TrackerGraphene)
	cfg.WarmupInstructions = 5_000
	cfg.RunInstructions = 20_000
	res := runSim(t, cfg)
	if len(res.IPC) != 8 || res.WeightedIPCSum <= 0 {
		t.Fatalf("bad sim result: %+v", res)
	}
}

func TestPublicTraceRecordReplay(t *testing.T) {
	w, err := impress.WorkloadByName("mix:gcc,attack:hammer")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := newLab(t).Record(context.Background(), w, 2, 2_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := impress.DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := decoded.Workload()
	if err != nil {
		t.Fatal(err)
	}
	cfg := impress.DefaultSimConfig(replay, impress.NewDesign(impress.ImpressP), impress.TrackerGraphene)
	cfg.Cores = 2
	cfg.WarmupInstructions = 1_000
	cfg.RunInstructions = 5_000
	live := cfg
	live.Workload = w
	if a, b := runSim(t, cfg), runSim(t, live); !reflect.DeepEqual(a, b) {
		t.Fatalf("replayed run differs from live run:\nreplay %+v\nlive   %+v", a, b)
	}
}

func TestPublicTrackers(t *testing.T) {
	rng := impress.NewRand(1)
	for _, tr := range []impress.Tracker{
		impress.NewGraphene(4000),
		impress.NewPARA(4000, rng),
		impress.NewMithril(4000, 80),
		impress.NewMINT(80, impress.NewRand(2)),
	} {
		tr.OnActivation(1, impress.One)
		tr.OnRFM()
		tr.ResetWindow()
	}
	if impress.MINTToleratedTRH(80) != 1600 {
		t.Fatal("MINT tolerated threshold wrong")
	}
}

func TestPublicExperiments(t *testing.T) {
	tabs, err := newLab(t).Experiments(context.Background(), impress.QuickScale(), impress.ExperimentsAnalytical())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) < 10 {
		t.Fatalf("analytical experiments = %d", len(tabs))
	}
	// Scales exist and differ.
	q, f := impress.QuickScale(), impress.FullScale()
	if q.Run >= f.Run {
		t.Fatal("quick scale should be shorter than full")
	}
}

func TestPublicPRAC(t *testing.T) {
	p := impress.NewPRAC(4000)
	if !p.InDRAM() || p.Name() != "prac" {
		t.Fatal("PRAC facade metadata wrong")
	}
	p.OnActivation(1, impress.One)
	p.OnRFM()
}

// TestPublicExperimentRunner: a custom sweep is concurrent Lab.Run calls
// on one Lab, which is safe for concurrent use. With a store attached
// through WithResultStore, the first pass simulates every config once
// and a second concurrent pass is served from the store bit-identically.
func TestPublicExperimentRunner(t *testing.T) {
	store, err := impress.OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[impress.ProgressKind]int{}
	lab := newLab(t, impress.WithResultStore(store),
		impress.WithProgress(func(p impress.Progress) { counts[p.Kind]++ })) // serialized by the Lab
	w, err := impress.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []impress.SimConfig
	for _, trh := range []float64{1000, 2000, 4000} {
		cfg := impress.DefaultSimConfig(w, impress.NewDesign(impress.ImpressP), impress.TrackerGraphene)
		cfg.WarmupInstructions, cfg.RunInstructions = 5_000, 20_000
		cfg.DesignTRH, cfg.RFMTH = trh, 80
		cfgs = append(cfgs, cfg)
	}
	sweep := func() []impress.SimResult {
		results := make([]impress.SimResult, len(cfgs))
		var wg sync.WaitGroup
		for i, cfg := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := lab.Run(context.Background(), cfg)
				if err != nil {
					t.Error(err)
				}
				results[i] = res
			}()
		}
		wg.Wait()
		return results
	}
	cold := sweep()
	for _, res := range cold {
		if len(res.IPC) != 8 || res.WeightedIPCSum <= 0 {
			t.Fatalf("bad concurrent run result: %+v", res)
		}
	}
	warm := sweep()
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("store-served sweep is not bit-identical to the simulated one")
	}
	n := len(cfgs)
	if counts[impress.ProgressSpecStarted] != 2*n || counts[impress.ProgressSpecFinished] != n ||
		counts[impress.ProgressSpecCacheHit] != n {
		t.Fatalf("progress counts %v, want %d started, %d finished, %d cache hits", counts, 2*n, n, n)
	}
}

func TestPublicScales(t *testing.T) {
	q, s, f := impress.QuickScale(), impress.StandardScale(), impress.FullScale()
	if !(q.Run < s.Run && s.Run < f.Run) {
		t.Fatalf("scale ordering wrong: %d %d %d", q.Run, s.Run, f.Run)
	}
	if len(s.Workloads) != 0 {
		t.Fatal("standard scale must cover all workloads")
	}
}

func TestPublicResultStore(t *testing.T) {
	store, err := impress.OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := impress.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := impress.DefaultSimConfig(w, impress.NewDesign(impress.ImpressP), impress.TrackerGraphene)
	cfg.WarmupInstructions, cfg.RunInstructions = 1_000, 5_000
	sp, err := impress.ResultSpecFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The clock mode must not split the key (all modes are bit-identical).
	ca := cfg
	ca.Clock = impress.SimClockCycleAccurate
	if sp2, err := impress.ResultSpecFor(ca); err != nil || sp2.Key() != sp.Key() {
		t.Fatalf("clock mode split the result key: %v", err)
	}
	if _, ok := store.Get(sp); ok {
		t.Fatal("empty store must miss")
	}
	res := runSim(t, cfg)
	if err := store.Put(sp, res); err != nil {
		t.Fatal(err)
	}
	// A Lab on a second handle sharing the directory serves the result
	// from the store: a cache-hit event, no simulation.
	shared, err := impress.OpenResultStore(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var events []impress.ProgressKind
	lab := newLab(t, impress.WithResultStore(shared),
		impress.WithProgress(func(p impress.Progress) { events = append(events, p.Kind) }))
	got, err := lab.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []impress.ProgressKind{impress.ProgressSpecStarted, impress.ProgressSpecCacheHit}; !reflect.DeepEqual(events, want) {
		t.Fatalf("progress events %v, want %v: the store should have served the result", events, want)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("stored result drifted: %+v vs %+v", got, res)
	}
}
