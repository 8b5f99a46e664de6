package impress_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"reflect"
	"testing"

	"impress"
	"impress/internal/attack"
	"impress/internal/core"
	"impress/internal/experiments"
	"impress/internal/resultstore"
	"impress/internal/sim"
	"impress/internal/trace"
)

// TestArchivedAttacksStayBounded is the attack zoo's regression tier:
// every champion archived under testdata/attackzoo is replayed against
// the tracker it was bred to defeat, and the margins recorded in its
// manifest must reproduce. The harness is deterministic, so drift here
// means a tracker, the harness, or the genome renderer changed behavior
// — exactly the regressions the zoo exists to catch. Each entry is also
// checked for artifact integrity (the rendered trace still hashes to
// the manifest's digest) and for simulator determinism (the archived
// workload produces bit-identical results across clock modes).
func TestArchivedAttacksStayBounded(t *testing.T) {
	dir := impress.DefaultAttackZooDir()
	entries, err := impress.AttackZooEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("attack zoo is empty: the repo ships at least one archived champion")
	}
	r := experiments.NewRunner(experiments.QuickScale())
	for _, e := range entries {
		t.Run(e.Name, func(t *testing.T) {
			data, err := os.ReadFile(attack.ZooTracePath(dir, e.Name))
			if err != nil {
				t.Fatalf("archived trace missing: %v", err)
			}
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != e.TraceSHA256 {
				t.Errorf("trace digest drifted from the manifest's %s", e.TraceSHA256)
			}

			spec, err := experiments.ZooEntrySpec(e)
			if err != nil {
				t.Fatal(err)
			}
			results, err := r.EvaluateAttacks(context.Background(), []resultstore.AttackSpec{spec})
			if err != nil {
				t.Fatal(err)
			}
			res := results[0]
			if drift := relDrift(res.MaxDamage, e.MaxDamage); drift > e.Tolerance {
				t.Errorf("peak damage %.1f drifted from archived %.1f (rel %.2g > tolerance %.2g)",
					res.MaxDamage, e.MaxDamage, drift, e.Tolerance)
			}
			if drift := relDrift(res.Slowdown(), e.Slowdown); drift > e.Tolerance {
				t.Errorf("slowdown %.6f drifted from archived %.6f", res.Slowdown(), e.Slowdown)
			}
			if res.MaxDamage <= e.PaperBestDamage {
				t.Errorf("champion damage %.1f no longer beats the paper's best pattern (%.1f)",
					res.MaxDamage, e.PaperBestDamage)
			}

			// The archived workload must simulate deterministically: the
			// event-driven clock replays it bit-identically to
			// cycle-accurate stepping.
			w, err := trace.WorkloadByName("attackzoo:" + e.Name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig(w, core.NewDesign(core.ImpressP), sim.TrackerKind(e.Tracker))
			cfg.DesignTRH = e.DesignTRH
			cfg.WarmupInstructions = 10_000
			cfg.RunInstructions = 40_000
			cfg.Clock = sim.ClockCycleAccurate
			ca, err := sim.RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Clock = sim.ClockEventDriven
			ev, err := sim.RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ca, ev) {
				t.Errorf("replay diverged across clock modes:\nCA %+v\nEV %+v", ca, ev)
			}
		})
	}
}

// relDrift is |got-want| / max(|want|, 1): relative for the large
// damage numbers, absolute near zero (slowdowns).
func relDrift(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(math.Abs(want), 1)
}
