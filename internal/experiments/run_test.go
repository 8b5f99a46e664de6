package experiments

import (
	"context"
	"strings"
	"testing"

	"impress/internal/resultstore"
	"impress/internal/security"
	"impress/internal/sim"
)

// simBacked names the definitions whose plans must name simulations;
// every other definition is analytical.
var simBacked = map[string]bool{
	"fig3": true, "fig5": true, "fig13": true, "fig14": true,
	"energy": true, "fig15": true, "fig16": true,
}

// TestDefinitionsPlan pins the plan pass PlanTables takes every table
// through. For every definition, at QuickScale and at a
// custom scale with co-run and aggressor workloads, planning must not
// panic on the zero results it hands the builder, must simulate and
// evaluate nothing, must touch no store, and must find runs exactly for
// the simulation-backed figures (attack evaluations exactly for
// attackzoo).
func TestDefinitionsPlan(t *testing.T) {
	for _, scale := range []Scale{QuickScale(), planTestScale()} {
		st := openStore(t, t.TempDir())
		r := NewRunner(scale)
		r.Store = st
		r.Progress = func(p Progress) { t.Errorf("%s: planning emitted %v", scale.Name, p.Kind) }
		for _, d := range Definitions() {
			var p buildPlan
			func() {
				defer func() {
					if v := recover(); v != nil {
						t.Errorf("%s/%s: planning panicked: %v", scale.Name, d.ID, v)
					}
				}()
				p = r.plan(d)
			}()
			if simBacked[d.ID] != (len(p.runs) > 0) {
				t.Errorf("%s/%s: planning found %d runs", scale.Name, d.ID, len(p.runs))
			}
			if (d.ID == "attackzoo") != (len(p.attacks) > 0) {
				t.Errorf("%s/%s: planning found %d attack evaluations", scale.Name, d.ID, len(p.attacks))
			}
		}
		if r.Sims() != 0 || r.AttackSims() != 0 {
			t.Errorf("%s: planning ran %d simulations and %d attack evaluations, want none",
				scale.Name, r.Sims(), r.AttackSims())
		}
		if c := st.Counters(); c != (resultstore.Counters{}) {
			t.Errorf("%s: planning touched the store: %+v", scale.Name, c)
		}
		if entries, err := st.Entries(); err != nil || len(entries) != 0 {
			t.Errorf("%s: store holds %d entries after planning (err %v)", scale.Name, len(entries), err)
		}
	}
}

// TestDefinitionsPlanIsComplete builds each simulation- or
// attack-backed table on its own, on a fresh runner at a tiny custom
// scale, and requires it to simulate exactly its own plan's distinct
// runs and evaluate exactly its distinct attacks. A builder that reads
// a spec its plan missed would run it outside the prefetch and push the
// count past the plan, even when another table plans that spec.
func TestDefinitionsPlanIsComplete(t *testing.T) {
	scale := planTestScale()
	for _, d := range Definitions() {
		p := NewRunner(scale).plan(d)
		if len(p.runs) == 0 && len(p.attacks) == 0 {
			continue
		}
		r := NewRunner(scale)
		only := RunOptions{Only: []string{d.ID}}
		if _, err := RunTables(context.Background(), r, only); err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		specs := planSpecs(t, r, only)
		if r.Sims() != int64(len(specs)) {
			t.Errorf("%s simulated %d specs; its plan names %d", d.ID, r.Sims(), len(specs))
		}
		attacks := map[string]bool{}
		for _, a := range p.attacks {
			attacks[string(a.Key())] = true
		}
		if r.AttackSims() != int64(len(attacks)) {
			t.Errorf("%s evaluated %d attacks; its plan names %d", d.ID, r.AttackSims(), len(attacks))
		}
	}
}

// planTestScale is a tiny custom scale with a co-run and an aggressor
// workload, cheap enough to build every simulation-backed table.
func planTestScale() Scale {
	return Scale{Name: "custom", Warmup: 1_000, Run: 5_000,
		Workloads: []string{"gcc", "copy", "mix:copy,add", "attack:hammer"}}
}

// TestPlanTablesMatchRunTables pins the sweep-service path: a plan made
// once before the sweep, whose specs are prefetched shard by shard as
// impress-labd does, assembles tables byte-identical to RunTables over
// the same selection, for fig13 and for the analytical set.
func TestPlanTablesMatchRunTables(t *testing.T) {
	ctx := context.Background()
	st := openStore(t, t.TempDir())
	for _, opts := range []RunOptions{{Only: []string{"fig13"}}, {Analytical: true}} {
		r := NewRunner(tinyScale())
		r.Parallelism, r.Store = 1, st
		p, err := PlanTables(r, opts)
		if err != nil {
			t.Fatal(err)
		}
		specs := specsOf(p)
		for i := 1; i <= 3; i++ {
			shard, err := p.Shard(i, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := shard.Prefetch(ctx); err != nil {
				t.Fatal(err)
			}
		}
		var streamed []*Table
		got, err := p.Tables(ctx, func(tab *Table) { streamed = append(streamed, tab) })
		if err != nil {
			t.Fatal(err)
		}
		direct := NewRunner(tinyScale())
		direct.Store = st
		want, err := RunTables(ctx, direct, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%+v: RunTables built no tables", opts)
		}
		if renderAll(got) != renderAll(want) || renderAll(streamed) != renderAll(want) {
			t.Fatalf("%+v: tables from the plan differ from RunTables:\n%s", opts, diffHint(renderAll(got), renderAll(want)))
		}
		if r.Sims() != int64(len(specs)) || direct.Sims() != 0 {
			t.Fatalf("%+v: the plan's sweep simulated %d of its %d specs, RunTables %d after it",
				opts, r.Sims(), len(specs), direct.Sims())
		}
	}
}

// wholePlan plans opts on r and returns its one shard: every distinct
// spec the selection needs.
func wholePlan(t *testing.T, r *Runner, opts RunOptions) Shard {
	t.Helper()
	p, err := PlanTables(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := p.Shard(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return shard
}

// planSpecs returns the deduplicated spec universe of opts on r.
func planSpecs(t *testing.T, r *Runner, opts RunOptions) []RunSpec {
	t.Helper()
	p, err := PlanTables(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	return specsOf(p)
}

// specsOf returns the plan's distinct specs in first-seen order.
func specsOf(p *Plan) []RunSpec {
	specs := make([]RunSpec, p.Len())
	for i, e := range p.distinct {
		specs[i] = p.runs[e].spec
	}
	return specs
}

// TestWarmJobDerivesEachSpecOnce follows a sweep service's job over a
// warm store — plan at submit, shards prefetched, tables assembled
// from the plan — and requires each distinct spec to be derived (its
// config, store spec and key) exactly once: at planning.
func TestWarmJobDerivesEachSpecOnce(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fig13 := RunOptions{Only: []string{"fig13"}}
	cold := NewRunner(tinyScale())
	cold.Store = openStore(t, dir)
	want, err := RunTables(ctx, cold, fig13)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(tinyScale())
	r.Parallelism, r.Store = 1, openStore(t, dir)
	p, err := PlanTables(r, fig13)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		shard, err := p.Shard(i, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := shard.Prefetch(ctx); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.Tables(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(got) != renderAll(want) {
		t.Fatalf("warm job tables differ from the cold sweep:\n%s", diffHint(renderAll(got), renderAll(want)))
	}
	specs := p.Len()
	if n := r.derived.Load(); n != int64(specs) {
		t.Errorf("the job derived specs %d times; its plan names %d distinct specs", n, specs)
	}
	if r.Sims() != 0 {
		t.Errorf("warm job simulated %d specs", r.Sims())
	}
}

// TestAssemblyMismatchPanics pins the replay contract: a builder whose
// Run or Attack calls at assembly differ from its plan — an extra
// call, a different spec, a missing call — panics as an invariant
// violation instead of running work the plan never named.
func TestAssemblyMismatchPanics(t *testing.T) {
	zoo := func(r *Runner, pattern string) security.Result {
		return r.Attack(ZooAttackSpec("graphene", pattern))
	}
	builders := map[string]func(r *Runner){
		"extra run": func(r *Runner) {
			w := r.Workloads()[0]
			if r.Run(baselineSpec(w)).Cycles > 0 {
				r.Run(noRPSpec(w, sim.TrackerGraphene, 4000, 80))
			}
		},
		"different run": func(r *Runner) {
			w := r.Workloads()[0]
			tracker := sim.TrackerGraphene
			if r.Run(baselineSpec(w)).Cycles > 0 {
				tracker = sim.TrackerPARA
			}
			r.Run(noRPSpec(w, tracker, 4000, 80))
		},
		"missing run": func(r *Runner) {
			w := r.Workloads()[0]
			if r.Run(baselineSpec(w)).Cycles == 0 {
				r.Run(noRPSpec(w, sim.TrackerGraphene, 4000, 80))
			}
		},
		"different attack": func(r *Runner) {
			pattern := "hammer"
			if zoo(r, pattern).MaxDamage > 0 {
				pattern = "rowpress"
			}
			zoo(r, pattern)
		},
	}
	for _, name := range []string{"extra run", "different run", "missing run", "different attack"} {
		build := builders[name]
		r := NewRunner(tinyScale())
		d := Definition{ID: "mismatch", Build: func(r *Runner) *Table {
			build(r)
			return &Table{ID: "mismatch"}
		}}
		p := newPlan(r, []selectedDef{{d, r.plan(d)}})
		rec := func() (rec any) {
			defer func() { rec = recover() }()
			_, err := p.Tables(context.Background(), nil)
			t.Errorf("%s: assembly returned %v instead of panicking", name, err)
			return nil
		}()
		if msg, ok := rec.(string); !ok || !strings.Contains(msg, "mismatch") {
			t.Errorf("%s: assembly panicked with %v, want an invariant violation naming the table", name, rec)
		}
	}
}
