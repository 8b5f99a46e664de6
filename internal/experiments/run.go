package experiments

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"impress/internal/errs"
	"impress/internal/resultstore"
	"impress/internal/security"
	"impress/internal/sim"
)

// Definition describes one runnable experiment: its CLI/-only ID and
// its table builder. The builder's own Runner.Run and Runner.Attack
// calls are the only statement of what it needs: PlanTables learns its
// spec list by planning it (see plan), and a definition whose plan
// names no simulation is analytical.
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
// runner it planned on. Every distinct simulation and attack evaluation
// the selected definitions ask for is derived once into an entry (for a
// run: its RunSpec, sim.Config, resultstore.Spec and key), and each
// selected definition, in paper order, keeps its builder's calls as
// indexes into those entries. Shard, shard prefetches and Tables read
// the entries and derive nothing again, so a sweep service plans
// once per request, shards the plan, and assembles the tables from the
// same value.
type Plan struct {
	r       *Runner
	runs    []runEntry
	attacks []attackEntry
	// distinct indexes the runs with distinct keys, in first-seen call
	// order, so every node computes the same list: two RunSpecs can
	// materialize the same config (an unset override and its explicit
	// default).
	distinct []int
	defs     []plannedDef
}

// attackEntry is one distinct attack evaluation of a plan with its key.
type attackEntry struct {
	spec resultstore.AttackSpec
	key  string
}

// plannedDef is a selected definition with its builder's calls, in
// call order with repeats, as indexes into the plan's entries.
type plannedDef struct {
	Definition
	runs, attacks []int
}

// PlanTables resolves opts against the registry, plans every selected
// definition on r (see selectDefs) and derives each distinct spec the
// plans name once. Unknown IDs, selection conflicts, unresolvable scale
// workloads and specs the store cannot key are typed errors
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
	return newPlan(r, defs), nil
}

// newPlan derives each distinct spec the selected definitions' calls
// name once, in first-seen order, and indexes every call into those
// entries. A run is identified by its RunSpec (runID) before it is
// derived, so a repeated call costs a map lookup.
func newPlan(r *Runner, defs []selectedDef) *Plan {
	calls := 0
	for _, d := range defs {
		calls += len(d.calls.runs)
	}
	p := &Plan{r: r, runs: make([]runEntry, 0, calls), defs: make([]plannedDef, 0, len(defs))}
	runIdx := make(map[runID]int, calls)
	keys := make(map[string]bool, calls)
	atkIdx := make(map[string]int)
	for _, d := range defs {
		pd := plannedDef{Definition: d.Definition, runs: make([]int, 0, len(d.calls.runs))}
		for _, s := range d.calls.runs {
			id := s.id()
			i, ok := runIdx[id]
			if !ok {
				i = len(p.runs)
				runIdx[id] = i
				e := r.derive(s)
				e.id = id
				p.runs = append(p.runs, e)
				if !keys[e.key] {
					keys[e.key] = true
					p.distinct = append(p.distinct, i)
				}
			}
			pd.runs = append(pd.runs, i)
		}
		for _, s := range d.calls.attacks {
			k := string(s.Key())
			i, ok := atkIdx[k]
			if !ok {
				i = len(p.attacks)
				atkIdx[k] = i
				p.attacks = append(p.attacks, attackEntry{spec: s, key: k})
			}
			pd.attacks = append(pd.attacks, i)
		}
		p.defs = append(p.defs, pd)
	}
	return p
}

// Len reports how many distinct simulation specs the plan names: the
// universe its shards partition (zero for an all-analytical selection).
func (p *Plan) Len() int { return len(p.distinct) }

// Shard is one partition of a plan's distinct simulation specs (see
// Plan.Shard).
type Shard struct {
	p    *Plan
	runs []int
}

// Shard returns the deterministic part of the plan's distinct specs
// owned by shard index (1-based) out of count. Each distinct simulation
// is assigned to exactly one shard by its key hash, so for any count
// the shards are pairwise disjoint and their union is the plan's
// distinct specs, in first-seen order — an exact cover. The assignment depends only on the canonical keys, so every
// machine in a fleet computes the same partition and the shards merge
// losslessly through a shared Store.
//
// Out-of-range index/count returns an error wrapping errs.ErrBadSpec —
// shard parameters that arrive over the wire (the impress-labd job API)
// must be rejectable without killing the server.
func (p *Plan) Shard(index, count int) (Shard, error) {
	if count < 1 || index < 1 || index > count {
		return Shard{}, fmt.Errorf("experiments: %w: shard %d/%d out of range (want 1 <= index <= count)",
			errs.ErrBadSpec, index, count)
	}
	s := Shard{p: p}
	for _, i := range p.distinct {
		if shardOf(resultstore.Key(p.runs[i].key), count) == index-1 {
			s.runs = append(s.runs, i)
		}
	}
	return s, nil
}

// Len reports how many distinct specs the shard owns.
func (s Shard) Len() int { return len(s.runs) }

// Prefetch runs the shard's specs on the plan's runner under ctx, over
// its worker pool: memo and store hits cost a lookup, the rest
// simulate. It returns — instead of panicking — a typed error on
// cancellation (matching errs.ErrCancelled and ctx.Err()) or simulation
// failure. Completed specs stay memoized and store-written either way,
// and cancelled specs are dropped from the memo so a retry under a live
// context re-simulates them. Concurrent context-aware sweeps on one
// runner share the first caller's cancellation signal.
func (s Shard) Prefetch(ctx context.Context) (err error) {
	r := s.p.r
	defer r.bind(ctx)()
	defer func() {
		if rec := recover(); rec != nil {
			err = abortErr(rec)
		}
	}()
	s.p.prefetch(s.runs)
	return nil
}

// prefetch runs the given entries over the runner's worker pool.
func (p *Plan) prefetch(runs []int) {
	pool(p.r, runs, func(i int) string { return p.runs[i].key }, func(i int) { p.r.run(&p.runs[i]) })
}

// Tables assembles the plan's tables on its runner under ctx, with
// RunTables' errors. It fans every distinct run, then every attack
// evaluation, out over one worker pool, so independent work across
// tables runs concurrently, then builds the tables serially, in paper
// order, replaying each builder against the warm memo (see build).
// onTable, when non-nil, receives each table as soon as it is built
// (see RunOptions.OnTable).
func (p *Plan) Tables(ctx context.Context, onTable func(*Table)) (tables []*Table, err error) {
	r := p.r
	defer r.bind(ctx)()
	defer func() {
		if rec := recover(); rec != nil {
			tables, err = nil, abortErr(rec)
		}
	}()
	p.prefetch(p.distinct)
	atks := make([]int, len(p.attacks))
	for i := range atks {
		atks[i] = i
	}
	pool(r, atks, func(i int) string { return p.attacks[i].key }, func(i int) { r.attack(&p.attacks[i]) })
	for i := range p.defs {
		d := &p.defs[i]
		r.checkCtx()
		t := p.build(d)
		if r.Clock == sim.ClockSampled {
			p.annotateCI(d, t)
		}
		r.emit(Progress{Kind: ProgressTableRendered, Table: t.ID})
		if onTable != nil {
			onTable(t)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// replay is an assembly copy's cursor over one planned definition.
type replay struct {
	p          *Plan
	d          *plannedDef
	runs, atks int // calls replayed so far
}

// build runs d's builder on an assembly copy of the plan's runner: the
// builder's Run and Attack calls are matched, position by position,
// against its planned calls and served from the runner's memo by the
// planned entry, so assembly derives no spec. A call that differs from
// its plan, an extra call or a missing one is a builder whose calls
// depend on results, which the plan could not see: it panics as an
// invariant violation rather than simulating outside the plan.
func (p *Plan) build(d *plannedDef) *Table {
	r := p.r
	rp := &replay{p: p, d: d}
	t := d.Build(&Runner{Scale: r.Scale, Clock: r.Clock, MaxRelError: r.MaxRelError,
		Parallelism: r.Parallelism, replay: rp})
	if rp.runs != len(d.runs) || rp.atks != len(d.attacks) {
		panic(fmt.Sprintf("experiments: %s: assembly made %d runs and %d attack evaluations; its plan names %d and %d",
			d.ID, rp.runs, rp.atks, len(d.runs), len(d.attacks)))
	}
	return t
}

// run serves the builder's next Run call from its planned entry.
func (rp *replay) run(spec RunSpec) sim.Result {
	n := rp.runs
	if n >= len(rp.d.runs) || rp.p.runs[rp.d.runs[n]].id != spec.id() {
		panic(fmt.Sprintf("experiments: %s: run call %d (%s/%s/%s) does not match its plan",
			rp.d.ID, n, spec.Workload.Name, spec.Design.Name(), spec.Tracker))
	}
	rp.runs++
	return rp.p.r.run(&rp.p.runs[rp.d.runs[n]])
}

// attack serves the builder's next Attack call from its planned entry.
func (rp *replay) attack(spec resultstore.AttackSpec) security.Result {
	n := rp.atks
	if n >= len(rp.d.attacks) || rp.p.attacks[rp.d.attacks[n]].spec != spec {
		panic(fmt.Sprintf("experiments: %s: attack call %d (%s vs %s) does not match its plan",
			rp.d.ID, n, spec.Pattern, spec.Tracker))
	}
	rp.atks++
	return rp.p.r.attack(&rp.p.attacks[rp.d.attacks[n]])
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
// they ask for (assembly panics if one does); the tables they produce
// here are discarded. Keys are not computed: PlanTables derives each
// distinct spec once.
func (r *Runner) plan(d Definition) buildPlan {
	p := &buildPlan{}
	d.Build(&Runner{Scale: r.Scale, Clock: r.Clock, MaxRelError: r.MaxRelError, Parallelism: 1, planned: p})
	return *p
}

// selectedDef is a selected definition with its builder's calls.
type selectedDef struct {
	Definition
	calls buildPlan
}

// selectDefs resolves a RunOptions selection against the registry: the
// selected definitions in paper order, each with its builder's calls,
// or a typed error for an unknown ID or an -only/-analytical conflict.
// PlanTables is its one caller, and RunTables, impress-experiments
// -shard and a sweep service all go through PlanTables, so "which
// experiments does this request name" can never disagree between
// validation, sharding and assembly. An unresolvable scale workload
// panics out of planning as a runAbort for the caller to recover.
func selectDefs(r *Runner, opts RunOptions) ([]selectedDef, error) {
	defs := Definitions()
	want := map[string]bool{}
	for _, id := range opts.Only {
		if !slices.ContainsFunc(defs, func(d Definition) bool { return d.ID == id }) {
			return nil, fmt.Errorf("experiments: %w: unknown experiment ID %q (known: %s)",
				errs.ErrBadSpec, id, strings.Join(KnownIDs(), ", "))
		}
		want[id] = true
	}
	var selected []selectedDef
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
		selected = append(selected, selectedDef{d, p})
	}
	return selected, nil
}

// annotateCI appends a confidence-interval summary note to a
// simulation-backed table assembled from sampled runs: the worst
// (largest) 95% relative half-width over the table's spec universe for
// each tracked metric, plus the early-stop count. Tables calls it for
// every table of a sampled-clock runner; exact-mode results carry no
// estimates, so exact tables never get the note. Every spec is memoized
// by the build that just ran, so the lookups here are pure memo hits.
func (p *Plan) annotateCI(d *plannedDef, t *Table) {
	seen := make(map[string]bool)
	var n, early int
	var worstIPC, worstACT float64
	for _, i := range d.runs {
		e := &p.runs[i]
		if seen[e.key] {
			continue
		}
		seen[e.key] = true
		est := p.r.run(e).Estimates
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
