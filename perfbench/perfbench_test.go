package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"impress/internal/trackers"
)

// repoRoot is the repository checkout the benchmark measures; the tests
// run in the benchmark's own directory.
const repoRoot = ".."

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json, the metric
// lists the benchmark emits and the tracker registry in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end = %v, benchmark emits %v", e2e, e2eMetrics)
	}
	if !reflect.DeepEqual(layer, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer = %v, benchmark emits %v", layer, layerMetrics)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, benchmark has %d", names, len(workloads))
	}
	if !reflect.DeepEqual(trackerNames, trackers.Names()) {
		t.Errorf("trackerNames = %v, registry has %v", trackerNames, trackers.Names())
	}
}

func TestPackageShares(t *testing.T) {
	top := []byte(`File: perfbench
Showing nodes accounting for 1.90s, 95.00% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      1.20s 60.00%  impress/internal/memctrl.(*Controller).schedule
     0.40s 20.00% 60.00%      0.40s 20.00%  impress/internal/trace/import.parseLine
     300ms 15.00% 75.00%      300ms 15.00%  impress/internal/memctrl.removeReq
     0.20s 10.00% 85.00%      0.30s 15.00%  runtime.scanobject
         0     0% 85.00%      0.30s 15.00%  runtime.gcBgMarkWorker
     0.20s 10.00% 95.00%      0.20s 10.00%  impress/internal/cache.(*Cache).Access
`)
	shares, gc, err := packageShares(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"memctrl": 0.55, "trace": 0.2, "cache": 0.1}
	for k, v := range want {
		if d := shares[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("share of %s = %v, want %v", k, shares[k], v)
		}
	}
	if d := gc - 0.15; d > 1e-9 || d < -1e-9 {
		t.Errorf("gc share = %v, want 0.15", gc)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, c.q); got-c.want > 1e-9 || c.want-got > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// runBench runs one workload for a tiny length and returns its result
// line.
func runBench(t *testing.T, workload string, traced, corrupt bool) result {
	t.Helper()
	t.Setenv("PERFBENCH_WORK", t.TempDir())
	trace := "0"
	if traced {
		trace = "1"
	}
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", trace,
		"--golden", filepath.Join(repoRoot, "internal", "experiments", "testdata", "golden", "fig13.txt")}
	if err := run(args, &out, corrupt); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	return res
}

// TestWorkloads runs every workload untraced and traced, and checks that
// it passes its own checks and emits every named metric with its unit;
// then runs each against a corrupted expectation and checks that the
// failure is counted.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, w := range []string{"sim-spec", "synth", "sweep-cold", "sweep-warm"} {
		t.Run(w, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res := runBench(t, w, traced, false)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				defs := e2eMetrics
				if traced {
					defs = layerMetrics
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %q", traced, d.name, m, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			}
			res := runBench(t, w, false, true)
			if res.Correct || res.Failed == 0 {
				t.Errorf("corrupted expectation: correct=%v failed=%d, want the failure counted", res.Correct, res.Failed)
			}
		})
	}
}

// TestSimStatisticsRepeat checks that the simulated-statistics digest
// repeats exactly between runs with the same seed.
func TestSimStatisticsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sim-spec twice")
	}
	a := runBench(t, "sim-spec", true, false)
	b := runBench(t, "sim-spec", true, false)
	if a.Metrics["stats_digest"] != b.Metrics["stats_digest"] || a.Metrics["memctrl.reads"] != b.Metrics["memctrl.reads"] {
		t.Errorf("simulated statistics differ: %v / %v vs %v / %v",
			a.Metrics["stats_digest"], a.Metrics["memctrl.reads"], b.Metrics["stats_digest"], b.Metrics["memctrl.reads"])
	}
}
