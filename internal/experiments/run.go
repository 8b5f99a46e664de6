package experiments

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"impress/internal/errs"
	"impress/internal/resultstore"
	"impress/internal/sim"
)

// Definition describes one runnable experiment: its CLI/-only ID and
// its table builder. The builder's own Runner.Run and Runner.Attack
// calls are the only statement of what it needs: RunTables and SpecsFor
// learn its spec list by planning it (see plan), and a definition whose
// plan names no simulation is analytical.
type Definition struct {
	ID string
	// Build assembles the table, using r for simulation-backed runs.
	Build func(r *Runner) *Table
}

// Definitions returns every experiment in paper order — the single
// registry behind RunTables and the impress-experiments CLI.
func Definitions() []Definition {
	a := func(id string, build func() *Table) Definition {
		return Definition{ID: id, Build: func(*Runner) *Table { return build() }}
	}
	// The other builders take the runner. The harness-backed ones (eq5,
	// fig18, security, prac, ablation-rfm, attackzoo) simulate nothing,
	// so they are analytical, but the runner's bound context cancels
	// them, ablation-rfm also uses its parallelism, and attackzoo its
	// attack-evaluation cache.
	return []Definition{
		a("table1", TableI),
		a("table2", TableII),
		{ID: "fig3", Build: Figure3},
		a("fig4", Figure4),
		{ID: "fig5", Build: Figure5},
		a("fig6", Figure6),
		a("fig7", Figure7),
		a("fig8", Figure8),
		{ID: "eq5", Build: ImpressNWorstCase},
		a("fig12", Figure12),
		{ID: "fig13", Build: Figure13},
		a("table3", TableIII),
		{ID: "fig14", Build: Figure14},
		{ID: "energy", Build: EnergyTable},
		{ID: "fig15", Build: Figure15},
		{ID: "fig16", Build: Figure16},
		{ID: "fig18", Build: Figure18},
		a("fig19", Figure19),
		a("storage", StorageTable),
		{ID: "security", Build: SecuritySummary},
		{ID: "prac", Build: PRACTable},
		a("dsac", RelatedWorkDSAC),
		{ID: "ablation-rfm", Build: AblationRFMPacing},
		{ID: "attackzoo", Build: AttackZooTable},
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
	// Analytical restricts to the simulation-free experiments: those
	// whose plan names no simulation.
	Analytical bool
	// OnTable, when non-nil, receives each table as soon as it is
	// assembled, in paper order — CLIs stream output through it instead
	// of waiting for the full slice. Assembly starts once every
	// selected run and attack evaluation is done, so a cold sweep
	// delivers its first table after its last simulation.
	OnTable func(*Table)
}

// RunTables assembles the selected experiment tables under a context —
// the package's context-aware boundary. It is PlanTables followed by
// Plan.Tables. Everything the table builders reject by runAbort
// surfaces here as a typed error: an unknown experiment ID or
// unresolvable scale workload (wrapping errs.ErrBadSpec /
// errs.ErrUnknownWorkload), a simulation or harness run rejecting its
// config, and cancellation (matching errs.ErrCancelled and ctx.Err(),
// honored within one simulation macro cycle, a few hundred harness
// accesses, and between tables). Completed simulations stay memoized —
// and persistently stored with a Store attached — so a cancelled sweep
// rerun resumes warm. Internal invariant panics still propagate.
func RunTables(ctx context.Context, r *Runner, opts RunOptions) ([]*Table, error) {
	p, err := PlanTables(r, opts)
	if err != nil {
		return nil, err
	}
	return p.Tables(ctx, opts.OnTable)
}

// Plan is one planning pass over an experiment selection, bound to the
// runner it planned on: the selected definitions in paper order, each
// with what its builder asks of the runner. A sweep service plans once
// per request, shards Specs, and assembles the tables from the same
// value.
type Plan struct {
	r    *Runner
	defs []plannedDef
}

// PlanTables resolves opts against the registry and plans every
// selected definition on r (see selectDefs). Unknown IDs, selection
// conflicts and unresolvable scale workloads are typed errors
// (errs.ErrBadSpec, errs.ErrUnknownWorkload). Nothing simulates.
func PlanTables(r *Runner, opts RunOptions) (p *Plan, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			p, err = nil, abortErr(rec)
		}
	}()
	defs, err := selectDefs(r, opts)
	if err != nil {
		return nil, err
	}
	return &Plan{r: r, defs: defs}, nil
}

// Specs returns the deduplicated union of the plan's simulation specs —
// the exact universe a sweep service shards across its workers before
// assembling any table (empty for an all-analytical selection). Specs
// keep their first-seen call order, so every node computes the same
// list.
func (p *Plan) Specs() []RunSpec {
	var specs []RunSpec
	seen := make(map[resultstore.Key]bool)
	for _, d := range p.defs {
		for _, s := range d.plan.runs {
			if k := p.r.storeSpec(s).Key(); !seen[k] {
				seen[k] = true
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// Tables assembles the plan's tables on its runner under ctx, with
// RunTables' errors. It fans the union of every table's runs, then of
// its attack evaluations, out over one worker pool, so independent work
// across tables runs concurrently, then builds the tables serially, in
// paper order, against the warm memo. onTable, when non-nil, receives
// each table as soon as it is built (see RunOptions.OnTable).
func (p *Plan) Tables(ctx context.Context, onTable func(*Table)) (tables []*Table, err error) {
	r := p.r
	defer r.bind(ctx)()
	defer func() {
		if rec := recover(); rec != nil {
			tables, err = nil, abortErr(rec)
		}
	}()
	var all buildPlan
	for _, d := range p.defs {
		all.runs = append(all.runs, d.plan.runs...)
		all.attacks = append(all.attacks, d.plan.attacks...)
	}
	r.prefetch(all.runs)
	r.prefetchAttacks(all.attacks)
	for _, d := range p.defs {
		r.checkCtx()
		t := d.Build(r)
		if r.Clock == sim.ClockSampled {
			annotateCI(r, d.plan.runs, t)
		}
		r.emit(Progress{Kind: ProgressTableRendered, Table: t.ID})
		if onTable != nil {
			onTable(t)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// buildPlan is what one table builder asks of its runner, in call
// order with repeats: every simulation and every attack evaluation.
type buildPlan struct {
	runs    []RunSpec
	attacks []resultstore.AttackSpec
}

// plan runs d.Build against a planning copy of r — same scale and
// clocking, no store, no progress, serial — whose Run and Attack record
// their spec and return the zero result, and whose harness returns the
// zero result. Nothing simulates or evaluates. Builders only do float
// arithmetic on results, so zero results cannot change which specs
// they ask for; the tables they produce here are discarded. Keys are
// not computed: prefetch and SpecsFor deduplicate.
func (r *Runner) plan(d Definition) buildPlan {
	p := &buildPlan{}
	d.Build(&Runner{Scale: r.Scale, Clock: r.Clock, MaxRelError: r.MaxRelError, Parallelism: 1, planned: p})
	return *p
}

// plannedDef is a selected definition with its plan.
type plannedDef struct {
	Definition
	plan buildPlan
}

// selectDefs resolves a RunOptions selection against the registry: the
// selected definitions in paper order, each with its plan, or a typed
// error for an unknown ID or an -only/-analytical conflict. PlanTables
// is its one caller, and RunTables, SpecsFor and a sweep service all
// go through PlanTables, so "which experiments does this request name"
// can never disagree between validation, sharding and assembly. An
// unresolvable scale workload panics out of planning as a runAbort for
// the caller to recover.
func selectDefs(r *Runner, opts RunOptions) ([]plannedDef, error) {
	defs := Definitions()
	want := map[string]bool{}
	for _, id := range opts.Only {
		if !slices.ContainsFunc(defs, func(d Definition) bool { return d.ID == id }) {
			return nil, fmt.Errorf("experiments: %w: unknown experiment ID %q (known: %s)",
				errs.ErrBadSpec, id, strings.Join(KnownIDs(), ", "))
		}
		want[id] = true
	}
	var selected []plannedDef
	for _, d := range defs {
		if len(want) > 0 && !want[d.ID] {
			continue
		}
		p := r.plan(d)
		if opts.Analytical && len(p.runs) > 0 {
			if want[d.ID] {
				return nil, fmt.Errorf("experiments: %w: experiment %q is simulation-backed; drop the analytical restriction to run it",
					errs.ErrBadSpec, d.ID)
			}
			continue
		}
		selected = append(selected, plannedDef{d, p})
	}
	return selected, nil
}

// SpecsFor returns the deduplicated union of the simulation specs the
// experiments selected by opts need: PlanTables followed by Plan.Specs
// (OnTable is ignored). It names exactly the runs RunTables will ask
// for, and reports selection errors exactly as RunTables would.
func SpecsFor(r *Runner, opts RunOptions) ([]RunSpec, error) {
	p, err := PlanTables(r, opts)
	if err != nil {
		return nil, err
	}
	return p.Specs(), nil
}

// annotateCI appends a confidence-interval summary note to a
// simulation-backed table assembled from sampled runs: the worst
// (largest) 95% relative half-width over the table's spec universe for
// each tracked metric, plus the early-stop count. RunTables calls it
// for every table of a sampled-clock runner with the table's planned
// runs; exact-mode results carry no estimates, so exact tables never get
// the note. Every spec is memoized by the Build that just ran, so the
// Run calls here are pure memo hits.
func annotateCI(r *Runner, runs []RunSpec, t *Table) {
	seen := make(map[string]bool)
	var n, early int
	var worstIPC, worstACT float64
	for _, s := range runs {
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
