package experiments

import (
	"context"
	"os"
	"reflect"
	"testing"

	"impress/internal/sim"
)

// TestClockEquivalenceQuickScaleSpecs checks the acceptance criterion of
// the event-driven clock: for QuickScale experiment specs, event-driven
// and cycle-accurate stepping produce byte-identical sim.Result values.
//
// The full union of QuickScale specs is ~300 configurations; running
// every one in both modes costs minutes, so by default the test walks a
// deterministic stride sample that still covers every workload, design,
// tracker and threshold class in the union. Set IMPRESS_CLOCK_EQUIV=all
// to sweep every spec (done before releases / after clocking changes).
func TestClockEquivalenceQuickScaleSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale clock-equivalence comparison skipped in -short mode")
	}
	r := NewRunner(QuickScale())
	specs := planSpecs(t, r, RunOptions{})
	stride := 13
	if os.Getenv("IMPRESS_CLOCK_EQUIV") == "all" {
		stride = 1
	}
	for i := 0; i < len(specs); i += stride {
		spec := specs[i]
		cfg := spec.config(r.Scale)
		cfg.Clock = sim.ClockEventDriven
		ev, err := sim.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Clock = sim.ClockCycleAccurate
		ca, err := sim.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ev, ca) {
			t.Fatalf("spec %s/%s/%s: event-driven result diverged from cycle-accurate:\nEV %+v\nCA %+v",
				spec.Workload.Name, spec.Design.Name(), spec.Tracker, ev, ca)
		}
	}
}
