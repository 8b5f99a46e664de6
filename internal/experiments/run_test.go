package experiments

import (
	"context"
	"testing"

	"impress/internal/resultstore"
)

// simBacked names the definitions whose plans must name simulations;
// every other definition is analytical.
var simBacked = map[string]bool{
	"fig3": true, "fig5": true, "fig13": true, "fig14": true,
	"energy": true, "fig15": true, "fig16": true,
}

// TestDefinitionsPlan pins the plan pass RunTables and SpecsFor take
// every table through. For every definition, at QuickScale and at a
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
		specs, err := SpecsFor(r, only)
		if err != nil {
			t.Fatal(err)
		}
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
		specs := p.Specs()
		for i := 1; i <= 3; i++ {
			shard, err := r.ShardSpecs(specs, i, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.PrefetchContext(ctx, shard); err != nil {
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
