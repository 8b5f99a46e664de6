package experiments

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"impress/internal/core"
	"impress/internal/errs"
	"impress/internal/sim"
	"impress/internal/trace"
)

// tinyScale keeps simulation-backed experiment tests fast.
func tinyScale() Scale {
	return Scale{Name: "tiny", Warmup: 5_000, Run: 25_000,
		Workloads: []string{"gcc", "copy"}}
}

func cell(t *Table, row, col int) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(t.Rows[row][col], "%"), 64)
	if err != nil {
		panic(err)
	}
	return v
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyticalTablesNonEmpty(t *testing.T) {
	tables, err := RunTables(context.Background(), NewRunner(QuickScale()), RunOptions{Analytical: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		if tab.ID == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Fatalf("experiment %q is empty", tab.ID)
		}
	}
}

func TestFigure4Anchor(t *testing.T) {
	tab := Figure4()
	// Find tMRO = 186 and check the paper's 0.62 anchor.
	for _, row := range tab.Rows {
		if row[0] == "186" {
			v, _ := strconv.ParseFloat(row[1], 64)
			if math.Abs(v-0.62) > 0.005 {
				t.Fatalf("T*(186ns) = %v, want 0.62", v)
			}
			return
		}
	}
	t.Fatal("tMRO=186 row missing")
}

func TestFigure12MatchesPaper(t *testing.T) {
	tab := Figure12()
	want := map[string]float64{"7": 1.0, "6": 0.985, "5": 0.970, "4": 0.941, "0": 0.5}
	for _, row := range tab.Rows {
		if expect, ok := want[row[0]]; ok {
			v, _ := strconv.ParseFloat(row[1], 64)
			if math.Abs(v-expect) > 0.002 {
				t.Fatalf("b=%s: %v, want %v", row[0], v, expect)
			}
		}
	}
}

func TestEquation5Table(t *testing.T) {
	tab := ImpressNWorstCase(NewRunner(QuickScale()))
	for _, row := range tab.Rows {
		ratio, _ := strconv.ParseFloat(row[3], 64)
		want, _ := strconv.ParseFloat(row[4], 64)
		if math.Abs(ratio-want)/want > 0.08 {
			t.Fatalf("alpha=%s: measured ratio %v vs Eq.5 %v", row[0], ratio, want)
		}
	}
}

func TestFigure18FlatInK(t *testing.T) {
	tab := Figure18(NewRunner(QuickScale()))
	// Analytic columns are exactly flat.
	for col := 1; col <= 3; col++ {
		first := cell(tab, 0, col)
		for r := range tab.Rows {
			if math.Abs(cell(tab, r, col)-first) > 1e-9 {
				t.Fatalf("analytic column %d not flat", col)
			}
		}
	}
	// Measured column flat within 15%.
	first := cell(tab, 0, 4)
	for r := range tab.Rows {
		if math.Abs(cell(tab, r, 4)-first)/first > 0.15 {
			t.Fatalf("measured slowdown not flat: row %d %v vs %v", r, cell(tab, r, 4), first)
		}
	}
}

func TestFigure19Shape(t *testing.T) {
	tab := Figure19()
	// 4.76% at K=0, TRH=4000 (paper text).
	if v := cell(tab, 0, 3); math.Abs(v-4.76) > 0.01 {
		t.Fatalf("PARA K=0 slowdown %v%%, want 4.76%%", v)
	}
	// Monotone non-increasing in K for every threshold.
	for col := 1; col <= 3; col++ {
		prev := math.Inf(1)
		for r := range tab.Rows {
			v := cell(tab, r, col)
			if v > prev+1e-9 {
				t.Fatalf("column %d increases at row %d", col, r)
			}
			prev = v
		}
	}
}

func TestStorageTableAnchors(t *testing.T) {
	tab := StorageTable()
	byKey := map[string][]string{}
	for _, row := range tab.Rows {
		byKey[row[0]+"/"+row[1]] = row
	}
	if byKey["graphene/no-rp"][2] != "448" {
		t.Fatalf("graphene baseline entries %s", byKey["graphene/no-rp"][2])
	}
	if byKey["mithril/no-rp"][2] != "383" {
		t.Fatalf("mithril baseline entries %s", byKey["mithril/no-rp"][2])
	}
	if v, _ := strconv.ParseFloat(byKey["graphene/express"][5], 64); math.Abs(v-2.0) > 0.01 {
		t.Fatalf("graphene ExPress storage ratio %v", v)
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(tinyScale())
	w := r.Workloads()[0]
	a := r.baseline(w)
	b := r.baseline(w)
	if a.Cycles != b.Cycles || a.WeightedIPCSum != b.WeightedIPCSum {
		t.Fatal("memoized run differs")
	}
	if len(r.runs.m) != 1 {
		t.Fatalf("cache has %d entries, want 1", len(r.runs.m))
	}
}

func TestRunnerWorkloadFilter(t *testing.T) {
	r := NewRunner(tinyScale())
	ws := r.Workloads()
	if len(ws) != 2 {
		t.Fatalf("filtered workloads = %d, want 2", len(ws))
	}
	full := NewRunner(FullScale())
	if len(full.Workloads()) != 20 {
		t.Fatalf("full workloads = %d, want 20", len(full.Workloads()))
	}
}

func TestRunnerWorkloadsResolveSpecs(t *testing.T) {
	r := NewRunner(Scale{Name: "custom", Warmup: 1, Run: 1,
		Workloads: []string{"copy", "gcc", "mix:gcc,attack:hammer"}})
	ws := r.Workloads()
	if len(ws) != 3 {
		t.Fatalf("resolved %d workloads, want 3", len(ws))
	}
	// Built-ins keep figure order (gcc is SPEC, copy STREAM); spec
	// entries append after them.
	if ws[0].Name != "gcc" || ws[1].Name != "copy" || ws[2].Name != "mix:gcc,attack:hammer" {
		t.Fatalf("wrong order: %s, %s, %s", ws[0].Name, ws[1].Name, ws[2].Name)
	}
	if ws[2].NewGenerator(1, 1).Next().Gap < 0 {
		t.Fatal("resolved mix generator unusable")
	}
}

// TestRunnerWorkloadsDedupesRepeats pins that a scale naming a workload
// twice resolves it once, custom entries included: a repeated row would
// render twice in every figure and count twice in its geomeans.
func TestRunnerWorkloadsDedupesRepeats(t *testing.T) {
	r := NewRunner(Scale{Name: "repeats", Warmup: 1, Run: 1,
		Workloads: []string{"gcc", "gcc", "mix:copy,add", "mix:copy,add"}})
	var names []string
	for _, w := range r.Workloads() {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, " "); got != "gcc mix:copy,add" {
		t.Fatalf("resolved workloads %q, want each named once: \"gcc mix:copy,add\"", got)
	}
}

func TestRunnerWorkloadsUnknownSpecPanics(t *testing.T) {
	r := NewRunner(Scale{Name: "typo", Warmup: 1, Run: 1, Workloads: []string{"gcc", "bogus"}})
	defer func() {
		if recover() == nil {
			t.Fatal("a scale naming an unknown workload must panic, not shrink figures silently")
		}
	}()
	r.Workloads()
}

func TestFigure3ShapeTiny(t *testing.T) {
	r := NewRunner(tinyScale())
	tab := Figure3(r)
	// Last two rows are the geomeans; STREAM at tMRO=36 must be below
	// SPEC at tMRO=36 (the paper's central Fig. 3 contrast).
	n := len(tab.Rows)
	specAt36 := cell(tab, n-2, 1)
	streamAt36 := cell(tab, n-1, 1)
	if streamAt36 >= specAt36 {
		t.Fatalf("STREAM (%v) should suffer more than SPEC (%v) at tMRO=36", streamAt36, specAt36)
	}
	if streamAt36 > 0.97 {
		t.Fatalf("STREAM at tMRO=36 shows no slowdown: %v", streamAt36)
	}
}

func TestFigure13ImpressPNearBaseline(t *testing.T) {
	r := NewRunner(tinyScale())
	tab := Figure13(r)
	n := len(tab.Rows)
	// Columns 3 and 6 are graphene/impress-p and para/impress-p geomeans.
	for _, col := range []int{3, 6} {
		for _, rowIdx := range []int{n - 2, n - 1} {
			v := cell(tab, rowIdx, col)
			if v < 0.93 || v > 1.07 {
				t.Fatalf("ImPress-P geomean %v at (%d,%d); must track No-RP", v, rowIdx, col)
			}
		}
	}
}

func TestGeoMeanBy(t *testing.T) {
	ws := []trace.Workload{
		{Name: "a", Stream: false}, {Name: "b", Stream: true},
	}
	spec, stream := geoMeanBy(ws, map[string]float64{"a": 2, "b": 8})
	if math.Abs(spec-2) > 1e-9 || math.Abs(stream-8) > 1e-9 {
		t.Fatalf("geoMeanBy = %v, %v", spec, stream)
	}
}

func TestRunSpecKeyDistinguishes(t *testing.T) {
	r := NewRunner(tinyScale())
	w, _ := trace.WorkloadByName("gcc")
	a := RunSpec{Workload: w, Tracker: sim.TrackerGraphene, DesignTRH: TRH(4000)}
	b := RunSpec{Workload: w, Tracker: sim.TrackerGraphene, DesignTRH: TRH(2000)}
	if r.derive(a).key == r.derive(b).key {
		t.Fatal("different TRH must produce different cache keys")
	}
}

// TestRunRejectsNonFiniteSpec: a spec the store cannot key raises the
// typed runAbort the context-aware boundaries recover into ErrBadSpec,
// not a marshalling panic.
func TestRunRejectsNonFiniteSpec(t *testing.T) {
	r := NewRunner(tinyScale())
	w, _ := trace.WorkloadByName("gcc")
	for _, trh := range []float64{math.NaN(), math.Inf(1)} {
		p := func() (p any) {
			defer func() { p = recover() }()
			r.Run(RunSpec{Workload: w, Design: core.NewDesign(core.ImpressP), Tracker: sim.TrackerGraphene, DesignTRH: TRH(trh)})
			return nil
		}()
		if a, ok := p.(*runAbort); !ok || !errors.Is(a.err, errs.ErrBadSpec) {
			t.Errorf("Run with TRH %v raised %v, want a runAbort matching errs.ErrBadSpec", trh, p)
		}
	}
}

func TestRunSpecExplicitZeroDistinctFromDefault(t *testing.T) {
	r := NewRunner(tinyScale())
	w, _ := trace.WorkloadByName("gcc")
	unset := RunSpec{Workload: w, Tracker: sim.TrackerGraphene}
	zero := RunSpec{Workload: w, Tracker: sim.TrackerGraphene, DesignTRH: TRH(0)}
	if r.derive(unset).key == r.derive(zero).key {
		t.Fatal("an explicit TRH of 0 must not alias the default")
	}
	if unset.RFMTH.Set || zero.RFMTH.Set {
		t.Fatal("zero-value override must read as unset")
	}
	// And the materialized configs differ accordingly.
	scale := tinyScale()
	if got := unset.config(scale).DesignTRH; got != 4000 {
		t.Fatalf("unset TRH should keep the sim default 4000, got %v", got)
	}
	if got := zero.config(scale).DesignTRH; got != 0 {
		t.Fatalf("explicit TRH(0) should carry through, got %v", got)
	}
	rfm := RunSpec{Workload: w, Tracker: sim.TrackerGraphene, RFMTH: RFM(0)}
	if got := rfm.config(scale).RFMTH; got != 0 {
		t.Fatalf("explicit RFM(0) should carry through, got %v", got)
	}
}

// TestSampledTablesCarryCINote pins that the confidence-interval note
// follows the clock: a sampled sweep's simulation-backed table carries
// it, and an exact one, whose results hold no estimates, does not.
func TestSampledTablesCarryCINote(t *testing.T) {
	const note = "sampled estimates, 95% CI"
	for _, tc := range []struct {
		clock sim.ClockMode
		want  bool
	}{
		{sim.ClockEventDriven, false},
		{sim.ClockSampled, true},
	} {
		r := NewRunner(Scale{Name: "tiny", Warmup: 5_000, Run: 25_000, Workloads: []string{"gcc"}})
		r.Clock = tc.clock
		tables, err := RunTables(context.Background(), r, RunOptions{Only: []string{"fig3"}})
		if err != nil {
			t.Fatal(err)
		}
		got := false
		for _, n := range tables[0].Notes {
			got = got || strings.HasPrefix(n, note)
		}
		if got != tc.want {
			t.Errorf("clock %v: fig3 carries the CI note = %v, want %v (notes %q)", tc.clock, got, tc.want, tables[0].Notes)
		}
	}
}
