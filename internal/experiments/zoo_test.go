package experiments

import (
	"testing"

	"impress/internal/core"
	"impress/internal/sim"
	"impress/internal/stats"
	"impress/internal/trace"
	"impress/internal/trackers"
)

// TestTrackerZooExhaustive is the registry's enforcement arm: a tracker
// added to trackers.Registry() must show up everywhere the zoo promises
// coverage, or this test names the gap. For every registered tracker it
// asserts
//
//   - a row in the storage comparison (StorageTable),
//   - a row in the security matrix (SecuritySummary),
//   - checkpoint support (the constructor yields a trackers.Snapshotter
//     whose snapshot round-trips with the registry name as its kind),
//   - and a valid simulator configuration under the tracker's registry
//     name, so the performance tier can run it.
//
// Registering a tracker without extending one of those surfaces fails
// here rather than silently narrowing an experiment.
func TestTrackerZooExhaustive(t *testing.T) {
	reg := trackers.Registry()
	if len(reg) < 6 {
		t.Fatalf("registry has %d trackers, want the full zoo (>= 6)", len(reg))
	}

	rowTrackers := func(tab *Table) map[string]bool {
		m := make(map[string]bool)
		for _, row := range tab.Rows {
			m[row[0]] = true
		}
		return m
	}
	storage := rowTrackers(StorageTable())
	security := rowTrackers(SecuritySummary(NewRunner(QuickScale())))

	w, err := trace.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}

	for _, info := range reg {
		t.Run(info.Name, func(t *testing.T) {
			if !storage[info.Name] {
				t.Errorf("StorageTable has no row for %q", info.Name)
			}
			if !security[info.Name] {
				t.Errorf("SecuritySummary has no row for %q", info.Name)
			}

			trh := float64(ZooDesignTRH)
			if info.Name == "mint" {
				trh = trackers.MINTToleratedTRH(ZooRFMTH)
			}
			tr := info.New(trh, ZooRFMTH, stats.NewRand(1))
			snap, ok := tr.(trackers.Snapshotter)
			if !ok {
				t.Fatalf("%q has no checkpoint support (does not implement trackers.Snapshotter)", info.Name)
			}
			st := snap.Snapshot()
			if st.Kind != info.Name {
				t.Errorf("snapshot kind %q, want the registry name %q", st.Kind, info.Name)
			}
			fresh := info.New(trh, ZooRFMTH, stats.NewRand(2)).(trackers.Snapshotter)
			if err := fresh.RestoreState(st); err != nil {
				t.Errorf("snapshot does not restore into a fresh instance: %v", err)
			}

			cfg := sim.DefaultConfig(w, core.NewDesign(core.ImpressP), sim.TrackerKind(info.Name))
			if info.Name == "mint" {
				cfg.DesignTRH = trh
			}
			if err := cfg.Validate(); err != nil {
				t.Errorf("simulator rejects registry tracker %q: %v", info.Name, err)
			}
		})
	}
}
