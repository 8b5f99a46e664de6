package experiments

import (
	"context"
	"errors"
	"fmt"

	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/errs"
	"impress/internal/resultstore"
	"impress/internal/security"
	"impress/internal/trackers"
)

// Attack-evaluation runs: the security harness analogue of Run. The
// synthesis loop asks for thousands of (pattern, tracker) evaluations
// per generation and re-asks for every survivor each generation, so the
// same memo + persistent-store discipline that makes performance sweeps
// resumable makes evolutionary search resumable — identical genomes are
// cache hits, and a warm store replays a whole search without
// simulating.

// Zoo evaluation defaults: every security-margin comparison in this
// package (the attackzoo table, the synthesis engine's fitness
// function, the archive regression tier) evaluates under one shared
// configuration so their numbers are comparable — ImPress-P at the
// paper's headline TRH, the conservative long-duration alpha, and the
// paper's RFM threshold for in-DRAM trackers.
const (
	// ZooDesignTRH is the evaluation threshold (the paper's headline
	// TRH = 4000).
	ZooDesignTRH = 4000
	// ZooRFMTH is the RFM threshold configured for in-DRAM trackers.
	ZooRFMTH = 80
	// ZooSeed seeds probabilistic trackers' private RNG streams.
	ZooSeed = 42
)

// ZooAttackSpec builds the canonical evaluation spec for a pattern
// against a registered tracker under the shared zoo defaults. MINT
// ignores the configured threshold entirely — its tolerated TRH is a
// property of the RFM threshold — so its evaluations are normalized to
// that tolerated threshold instead.
func ZooAttackSpec(tracker, pattern string) resultstore.AttackSpec {
	trh := float64(ZooDesignTRH)
	rfmth := 0
	if info, ok := trackers.ByName(tracker); ok && info.InDRAM {
		rfmth = ZooRFMTH
	}
	if tracker == "mint" {
		trh = trackers.MINTToleratedTRH(ZooRFMTH)
	}
	return resultstore.AttackSpec{
		Pattern:   pattern,
		Tracker:   tracker,
		Design:    core.NewDesign(core.ImpressP),
		DesignTRH: trh,
		AlphaTrue: clm.AlphaLongDuration,
		RFMTH:     rfmth,
		Seed:      ZooSeed,
	}
}

// ZooEntrySpec reconstructs the evaluation spec an archived zoo entry's
// margins were recorded under, from its manifest fields.
func ZooEntrySpec(e attack.ZooEntry) (resultstore.AttackSpec, error) {
	design, err := core.ParseDesign(e.Design, clm.AlphaDeviceIndependent, 0, clm.FracBits)
	if err != nil {
		return resultstore.AttackSpec{}, fmt.Errorf("experiments: zoo entry %q: %w", e.Name, err)
	}
	return resultstore.AttackSpec{
		Pattern:   attack.SynthSpecPrefix + e.Genome,
		Tracker:   e.Tracker,
		Design:    design,
		DesignTRH: e.DesignTRH,
		AlphaTrue: e.AlphaTrue,
		RFMTH:     e.RFMTH,
		Seed:      e.Seed,
	}, nil
}

// AttackSims reports how many harness evaluations this runner actually
// executed — memo and store hits excluded. A warm-store rerun of a
// synthesis search keeps it at zero.
func (r *Runner) AttackSims() int64 { return r.atkSims.Load() }

// Attack executes (or recalls) one security-harness evaluation, with
// Run's exact memoization contract: concurrent calls with the same spec
// deduplicate, a Store resolves repeats across processes, and failures
// or cancellation panic as a typed runAbort that the context-aware
// entry points recover into errors. Cancelled specs are dropped from
// the memo so a retry under a live context re-evaluates.
func (r *Runner) Attack(spec resultstore.AttackSpec) security.Result {
	switch {
	case r.planned != nil:
		r.planned.attacks = append(r.planned.attacks, spec)
		return security.Result{}
	case r.replay != nil:
		return r.replay.attack(spec)
	}
	return r.attack(&attackEntry{spec: spec, key: string(spec.Key())})
}

// attack executes (or recalls) a keyed evaluation, memoized by its key.
func (r *Runner) attack(e *attackEntry) security.Result {
	r.checkCtx()
	spec, k := e.spec, e.key
	return r.attacks.do(k, func() security.Result {
		label := fmt.Sprintf("%s vs %s", spec.Pattern, spec.Tracker)
		r.emit(Progress{Kind: ProgressAttackStarted, Spec: label, Key: k})
		if r.Store != nil {
			if res, ok := r.Store.GetAttack(spec); ok {
				r.emit(Progress{Kind: ProgressAttackCacheHit, Spec: label, Key: k})
				return res
			}
		}
		cfg, pattern, err := spec.SecurityConfig()
		if err != nil {
			panic(&runAbort{err})
		}
		res := r.harness(label, cfg, pattern)
		r.atkSims.Add(1)
		r.emit(Progress{Kind: ProgressAttackFinished, Spec: label, Key: k})
		if r.Store != nil {
			_ = r.Store.PutAttack(spec, res)
		}
		return res
	})
}

// harness replays one pattern through the security harness under the
// runner's bound context. A failure raises the runAbort the
// context-aware boundaries (Plan.Tables, EvaluateAttacks) recover:
// cancellation as "sweep stopped" (matching errs.ErrCancelled and
// ctx.Err()), anything else under label. A planning copy replays
// nothing and returns the zero result.
func (r *Runner) harness(label string, cfg security.Config, p attack.Pattern) security.Result {
	if r.planned != nil {
		return security.Result{}
	}
	res, err := security.RunContext(r.runCtx(), cfg, p)
	switch {
	case errors.Is(err, errs.ErrCancelled):
		panic(&runAbort{fmt.Errorf("experiments: sweep stopped: %w", err)})
	case err != nil:
		panic(&runAbort{fmt.Errorf("experiments: %s: %w", label, err)})
	}
	return res
}

// EvaluateAttacks is the context-aware batch entry point: it evaluates
// every spec (parallel, deduplicated, cache-backed) and returns results
// in spec order. Cancellation and harness errors surface as typed
// errors; completed evaluations stay memoized and store-written, so a
// retried batch resumes warm. It is the evaluation seam the synthesis
// engine and the labd attack endpoint plug into. Each spec is keyed
// once.
func (r *Runner) EvaluateAttacks(ctx context.Context, specs []resultstore.AttackSpec) (results []security.Result, err error) {
	defer r.bind(ctx)()
	defer func() {
		if p := recover(); p != nil {
			results, err = nil, abortErr(p)
		}
	}()
	entries := make([]*attackEntry, len(specs))
	for i, s := range specs {
		entries[i] = &attackEntry{spec: s, key: string(s.Key())}
	}
	pool(r, entries, func(e *attackEntry) string { return e.key }, func(e *attackEntry) { r.attack(e) })
	results = make([]security.Result, len(specs))
	for i, e := range entries {
		results[i] = r.attack(e)
	}
	return results, nil
}

// AttackZooTable compares the paper's hand-written attack patterns
// against the archived synthesized champions, per registered tracker —
// the adversarial-synthesis headline: how much worse than the paper's
// worst pattern a searched trace gets, for every tracker in the zoo.
func AttackZooTable(r *Runner) *Table {
	t := &Table{
		ID: "attackzoo", Title: "Paper vs synthesized attack margins (peak damage, TRH units)",
		Header: []string{"Tracker", "Best paper pattern", "Paper damage", "Best synthesized", "Synth damage", "Synth/paper"},
	}
	entries, err := attack.ZooEntries(attack.DefaultZooDir())
	if err != nil {
		panic(&runAbort{err})
	}
	for _, tr := range trackers.Names() {
		var paperBest security.Result
		var paperName string
		for _, p := range attack.PaperPatternNames() {
			if res := r.Attack(ZooAttackSpec(tr, p)); paperName == "" || res.MaxDamage > paperBest.MaxDamage {
				paperBest, paperName = res, p
			}
		}
		synthName, synthDamage, ratio := "-", "-", "-"
		var synthBest security.Result
		var bestEntry string
		for _, e := range entries {
			if res := r.Attack(ZooAttackSpec(tr, attack.SynthSpecPrefix+e.Genome)); bestEntry == "" || res.MaxDamage > synthBest.MaxDamage {
				synthBest, bestEntry = res, e.Name
			}
		}
		if bestEntry != "" {
			synthName = bestEntry
			synthDamage = f1(synthBest.MaxDamage)
			ratio = f2(synthBest.MaxDamage / paperBest.MaxDamage)
			if synthBest.MaxDamage > paperBest.MaxDamage {
				ratio += " SYNTH WORSE"
			}
		}
		t.Rows = append(t.Rows, []string{
			tr, paperName, f1(paperBest.MaxDamage), synthName, synthDamage, ratio,
		})
	}
	if len(entries) == 0 {
		t.Notes = append(t.Notes, "attack zoo empty: run impress-synth to breed and archive champions")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%d archived champion(s); every genome is evaluated against every tracker under the shared zoo defaults", len(entries)))
	}
	t.Notes = append(t.Notes,
		"a ratio > 1 means search found a strictly worse-case trace than every paper pattern for that tracker")
	return t
}
