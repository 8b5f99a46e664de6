// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md §3 maps each to its experiment). Analytical
// benchmarks regenerate their result from the models every iteration; the
// simulation-backed figure benchmarks run the performance simulator at a
// reduced benchmark scale (two representative workloads, short runs) so
// `go test -bench=.` completes in minutes while exercising the identical
// code path as the full reproduction.
package impress_test

import (
	"context"
	"io"
	"testing"

	"impress"
	"impress/internal/experiments"
)

// benchScale is a trimmed scale for benchmark iterations.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Name: "bench", Warmup: 10_000, Run: 50_000,
		Workloads: []string{"gcc", "copy"},
	}
}

func render(b *testing.B, t *experiments.Table) {
	b.Helper()
	if len(t.Rows) == 0 {
		b.Fatalf("%s produced no rows", t.ID)
	}
	t.Render(io.Discard)
}

// --- Tables ---

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.TableI())
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.TableII())
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.TableIII())
	}
}

// --- Model figures (analytical) ---

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.Figure4())
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.Figure6())
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.Figure7())
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.Figure8())
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.Figure12())
	}
}

// --- Security-harness figures ---

func BenchmarkEquation5WorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.ImpressNWorstCase(experiments.NewRunner(benchScale())))
	}
}

func BenchmarkFigure18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.Figure18(experiments.NewRunner(benchScale())))
	}
}

func BenchmarkFigure19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.Figure19())
	}
}

func BenchmarkStorageTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.StorageTable())
	}
}

func BenchmarkSecuritySummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.SecuritySummary(experiments.NewRunner(benchScale())))
	}
}

// --- Simulation-backed figures (benchmark scale) ---

// benchTable assembles one simulation-backed experiment the way every
// caller does, through RunTables: it plans the table, prefetches its
// runs over the worker pool, then builds it from the warm memo.
func benchTable(b *testing.B, id string) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.RunTables(context.Background(), experiments.NewRunner(benchScale()),
			experiments.RunOptions{Only: []string{id}})
		if err != nil {
			b.Fatal(err)
		}
		render(b, tables[0])
	}
}

func BenchmarkFigure3(b *testing.B)     { benchTable(b, "fig3") }
func BenchmarkFigure5(b *testing.B)     { benchTable(b, "fig5") }
func BenchmarkFigure13(b *testing.B)    { benchTable(b, "fig13") }
func BenchmarkFigure14(b *testing.B)    { benchTable(b, "fig14") }
func BenchmarkEnergyTable(b *testing.B) { benchTable(b, "energy") }
func BenchmarkFigure15(b *testing.B)    { benchTable(b, "fig15") }
func BenchmarkFigure16(b *testing.B)    { benchTable(b, "fig16") }

// --- Parallel run scheduler ---

// prefetchBenchSpecs is a fixed spec list (a Fig. 13-like sweep over the
// bench workloads) used to compare serial and parallel prefetching.
func prefetchBenchSpecs(r *experiments.Runner) []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, w := range r.Workloads() {
		for _, tracker := range []impress.TrackerKind{impress.TrackerGraphene, impress.TrackerPARA} {
			for _, kind := range []impress.DesignKind{impress.NoRP, impress.ExPress, impress.ImpressP} {
				specs = append(specs, experiments.RunSpec{
					Workload: w, Design: impress.NewDesign(kind), Tracker: tracker,
					DesignTRH: experiments.TRH(4000), RFMTH: experiments.RFM(80),
				})
			}
		}
	}
	return specs
}

func benchmarkPrefetch(b *testing.B, parallelism int) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchScale())
		r.Parallelism = parallelism
		if err := r.PrefetchContext(context.Background(), prefetchBenchSpecs(r)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrefetchSerial is the single-worker baseline for the scheduler.
func BenchmarkPrefetchSerial(b *testing.B) { benchmarkPrefetch(b, 1) }

// BenchmarkPrefetchParallel fans the same spec list over GOMAXPROCS
// workers; the serial/parallel ratio is the scheduler's speedup.
func BenchmarkPrefetchParallel(b *testing.B) { benchmarkPrefetch(b, 0) }

// --- Per-run clocking ---

// benchmarkRunClock measures one full simulation under the given clock;
// the EventDriven/CycleAccurate pair's ratio is the intra-run speedup of
// the event-driven clock on the paper's lowest-MPKI workload (see
// internal/sim's BenchmarkClock* for the full workload sweep, including
// the LLC-resident low-intensity profile where the win is largest).
func benchmarkRunClock(b *testing.B, clock impress.SimClockMode) {
	w, err := impress.WorkloadByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	lab := newLab(b)
	for i := 0; i < b.N; i++ {
		cfg := impress.DefaultSimConfig(w, impress.NewDesign(impress.NoRP), impress.TrackerNone)
		cfg.WarmupInstructions = 10_000
		cfg.RunInstructions = 50_000
		cfg.Clock = clock
		if _, err := lab.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunEventDriven(b *testing.B)   { benchmarkRunClock(b, impress.SimClockEventDriven) }
func BenchmarkRunCycleAccurate(b *testing.B) { benchmarkRunClock(b, impress.SimClockCycleAccurate) }

// --- Extension experiments ---

func BenchmarkPRACTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.PRACTable(experiments.NewRunner(benchScale())))
	}
}

func BenchmarkRelatedWorkDSAC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.RelatedWorkDSAC())
	}
}

func BenchmarkAblationRFMPacing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		render(b, experiments.AblationRFMPacing(experiments.NewRunner(benchScale())))
	}
}
