package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"impress/internal/errs"
)

// Definition describes one runnable experiment: its CLI/-only ID,
// whether it needs performance simulations, its table builder, and —
// for simulation-backed experiments — its declared spec list.
type Definition struct {
	ID string
	// Analytical marks experiments that need no performance simulation
	// (model arithmetic and the single-bank security harness only).
	Analytical bool
	// Build assembles the table, using r for simulation-backed runs.
	Build func(r *Runner) *Table
	// Specs declares every simulation Build needs (nil for analytical
	// experiments). SpecsFor unions them so sweep services can shard a
	// job's exact simulation universe before assembling any table.
	Specs func(r *Runner) []RunSpec
}

// Definitions returns every experiment in paper order — the single
// registry behind RunTables and the impress-experiments CLI.
func Definitions() []Definition {
	a := func(id string, build func() *Table) Definition {
		return Definition{ID: id, Analytical: true, Build: func(*Runner) *Table { return build() }}
	}
	// Harness-backed experiments are analytical (single-bank security
	// harness, no performance simulation) but run through the runner:
	// its bound context cancels them, and ablation-rfm and attackzoo
	// also use its parallelism (attackzoo its attack-evaluation cache).
	h := func(id string, build func(*Runner) *Table) Definition {
		return Definition{ID: id, Analytical: true, Build: build}
	}
	s := func(id string, build func(*Runner) *Table, specs func(*Runner) []RunSpec) Definition {
		return Definition{ID: id, Build: build, Specs: specs}
	}
	return []Definition{
		a("table1", TableI),
		a("table2", TableII),
		s("fig3", Figure3, figure3Specs),
		a("fig4", Figure4),
		s("fig5", Figure5, figure5Specs),
		a("fig6", Figure6),
		a("fig7", Figure7),
		a("fig8", Figure8),
		h("eq5", ImpressNWorstCase),
		a("fig12", Figure12),
		s("fig13", Figure13, figure13Specs),
		a("table3", TableIII),
		s("fig14", Figure14, figure14Specs),
		s("energy", EnergyTable, figure14Specs),
		s("fig15", Figure15, figure15Specs),
		s("fig16", Figure16, figure16Specs),
		h("fig18", Figure18),
		a("fig19", Figure19),
		a("storage", StorageTable),
		h("security", SecuritySummary),
		h("prac", PRACTable),
		a("dsac", RelatedWorkDSAC),
		h("ablation-rfm", AblationRFMPacing),
		h("attackzoo", AttackZooTable),
	}
}

// KnownIDs returns every experiment ID, sorted.
func KnownIDs() []string {
	defs := Definitions()
	ids := make([]string, len(defs))
	for i, d := range defs {
		ids[i] = d.ID
	}
	sort.Strings(ids)
	return ids
}

// RunOptions selects and observes the work RunTables performs.
type RunOptions struct {
	// Only restricts assembly to these experiment IDs (nil = all).
	Only []string
	// Analytical restricts to the simulation-free experiments.
	Analytical bool
	// OnTable, when non-nil, receives each table as soon as it is
	// assembled, in paper order — CLIs stream output through it instead
	// of waiting for the full slice.
	OnTable func(*Table)
}

// RunTables assembles the selected experiment tables under a context —
// the package's context-aware boundary. Everything the table builders
// reject by runAbort surfaces here as a typed error: an unknown
// experiment ID or unresolvable scale workload (wrapping
// errs.ErrBadSpec / errs.ErrUnknownWorkload), a simulation or harness
// run rejecting its config, and cancellation (matching
// errs.ErrCancelled and ctx.Err(), honored within one simulation macro
// cycle, a few hundred harness accesses, and between tables).
// Completed simulations stay memoized — and persistently stored with a
// Store attached — so a cancelled sweep rerun resumes warm. Internal
// invariant panics still propagate.
func RunTables(ctx context.Context, r *Runner, opts RunOptions) (tables []*Table, err error) {
	selected, err := selectDefs(opts)
	if err != nil {
		return nil, err
	}

	defer r.bind(ctx)()
	defer func() {
		if p := recover(); p != nil {
			tables, err = nil, abortErr(p)
		}
	}()

	// A batch full sweep prefetches the union up front so independent
	// runs across figures execute concurrently. Streaming callers
	// (OnTable) want completed tables incrementally, so each figure
	// prefetches its own set lazily instead — the memo still
	// deduplicates cross-figure overlap, and output is byte-identical
	// either way. Filtered runs are always lazy.
	if len(opts.Only) == 0 && !opts.Analytical && opts.OnTable == nil {
		r.prefetch(SimSpecs(r))
	}
	for _, d := range selected {
		r.checkCtx()
		t := d.Build(r)
		if r.AnnotateCI && d.Specs != nil {
			annotateCI(r, d, t)
		}
		r.emit(Progress{Kind: ProgressTableRendered, Table: t.ID})
		if opts.OnTable != nil {
			opts.OnTable(t)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// selectDefs resolves a RunOptions selection against the registry: the
// selected definitions in paper order, or a typed error for an unknown
// ID or an -only/-analytical conflict. RunTables and SpecsFor share it
// so "which experiments does this request name" can never disagree
// between validation, sharding and assembly.
func selectDefs(opts RunOptions) ([]Definition, error) {
	defs := Definitions()
	want := map[string]bool{}
	for _, id := range opts.Only {
		var def *Definition
		for i := range defs {
			if defs[i].ID == id {
				def = &defs[i]
				break
			}
		}
		if def == nil {
			return nil, fmt.Errorf("experiments: %w: unknown experiment ID %q (known: %s)",
				errs.ErrBadSpec, id, strings.Join(KnownIDs(), ", "))
		}
		if opts.Analytical && !def.Analytical {
			return nil, fmt.Errorf("experiments: %w: experiment %q is simulation-backed; drop the analytical restriction to run it",
				errs.ErrBadSpec, id)
		}
		want[id] = true
	}
	var selected []Definition
	for _, d := range defs {
		if len(want) > 0 && !want[d.ID] {
			continue
		}
		if opts.Analytical && !d.Analytical {
			continue
		}
		selected = append(selected, d)
	}
	return selected, nil
}

// SpecsFor returns the deduplicated union of the simulation specs the
// experiments selected by opts need — the exact universe a sweep
// service shards across its worker fleet before assembling any table
// (OnTable is ignored; an all-analytical selection returns an empty
// universe). Specs keep their first-seen declaration order, so every
// node computes the same list. Unknown IDs, selection conflicts and
// unresolvable scale workloads surface as typed errors (errs.ErrBadSpec,
// errs.ErrUnknownWorkload) exactly as RunTables would report them.
func SpecsFor(r *Runner, opts RunOptions) (specs []RunSpec, err error) {
	selected, err := selectDefs(opts)
	if err != nil {
		return nil, err
	}
	// Workload resolution (r.Workloads inside the Specs funcs) reports
	// scale typos through the runAbort panic; recover it
	// into the typed error here like the other context-aware
	// boundaries.
	defer func() {
		if p := recover(); p != nil {
			specs, err = nil, abortErr(p)
		}
	}()
	seen := make(map[string]bool)
	for _, d := range selected {
		if d.Specs == nil || opts.Analytical {
			continue
		}
		for _, s := range d.Specs(r) {
			if k := string(r.storeSpec(s).Key()); !seen[k] {
				seen[k] = true
				specs = append(specs, s)
			}
		}
	}
	return specs, nil
}

// annotateCI appends a confidence-interval summary note to a
// simulation-backed table assembled from sampled runs: the worst
// (largest) 95% relative half-width over the table's spec universe for
// each tracked metric, plus the early-stop count. Every spec is memoized
// by the Build that just ran, so the Run calls here are pure memo hits.
// Exact-mode results carry no estimates and contribute nothing, which
// keeps default-mode table output byte-identical even with the flag set.
func annotateCI(r *Runner, d Definition, t *Table) {
	seen := make(map[string]bool)
	var n, early int
	var worstIPC, worstACT float64
	for _, s := range d.Specs(r) {
		k := string(r.storeSpec(s).Key())
		if seen[k] {
			continue
		}
		seen[k] = true
		est := r.Run(s).Estimates
		if est == nil {
			continue
		}
		n++
		if est.EarlyStopped {
			early++
		}
		if est.WeightedIPC.RelError > worstIPC {
			worstIPC = est.WeightedIPC.RelError
		}
		if est.ACTsPerKilo.RelError > worstACT {
			worstACT = est.ACTsPerKilo.RelError
		}
	}
	if n == 0 {
		return
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"sampled estimates, 95%% CI: worst rel. half-width IPC %.2f%%, ACTs %.2f%% across %d runs (%d early-stopped)",
		100*worstIPC, 100*worstACT, n, early))
}
