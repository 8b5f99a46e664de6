package trackers

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"impress/internal/clm"
	"impress/internal/errs"
	"impress/internal/stats"
)

// ---- Hydra ----

// count returns the row's effective counter: its exact counter once
// the group spilled, else the group's aggregate.
func (h *Hydra) count(row int64) clm.EACT {
	g := h.group(row)
	if h.gct[g] < h.groupSpill {
		return h.gct[g]
	}
	if c, ok := h.rows[row]; ok {
		return c
	}
	return h.groupSpill
}

func TestHydraSoloHammerMitigatesAtInternalThreshold(t *testing.T) {
	h := NewHydra(4000)
	internal := 4000 / HydraInternalDivisor
	for i := 1; i <= internal; i++ {
		rows := h.OnActivation(7, clm.One)
		if i < internal {
			if rows != nil {
				t.Fatalf("premature mitigation at activation %d", i)
			}
			continue
		}
		// Activation `internal` crosses the per-row threshold: the group
		// spilled at internal/2 and the row inherited that count, so the
		// exact counter reaches trh/2 exactly here.
		if len(rows) != 1 || rows[0] != 7 {
			t.Fatalf("activation %d mitigated %v, want row 7", i, rows)
		}
	}
	if h.mitigations != 1 {
		t.Fatalf("mitigation count = %d", h.mitigations)
	}
	if h.count(7) != 0 {
		t.Fatalf("counter not reset after mitigation: %v", h.count(7))
	}
}

func TestHydraGroupInheritanceIsConservative(t *testing.T) {
	// Rows 1 and 513 share GCT group 1 (512 groups per bank). Row 1
	// contributes 999 of the 1000 activations that spill the group, but
	// the row that triggers the spill — and every row first seen after
	// it — inherits the full group count: Hydra may over-count a row
	// (extra mitigations, safe) but never under-count it.
	h := NewHydra(4000)
	const spillActs = 1000 // trh/2/2 with unit weights
	for i := 0; i < spillActs-1; i++ {
		if rows := h.OnActivation(1, clm.One); rows != nil {
			t.Fatalf("mitigation while aggregating: %v", rows)
		}
	}
	if rows := h.OnActivation(513, clm.One); rows != nil {
		t.Fatalf("spill itself must not mitigate, got %v", rows)
	}
	if got := h.count(513); got != clm.EACT(spillActs)*clm.One {
		t.Fatalf("spilling row's inherited count = %v, want %d", got.Float(), spillActs)
	}
	// Row 1, first seen after the spill, also inherits — its 999 true
	// activations are covered by the inherited 1000.
	if got := h.count(1); got < 999*clm.One {
		t.Fatalf("row 1 under-counted after spill: %v < 999", got.Float())
	}
	// From the inherited base, 1000 more activations reach the per-row
	// threshold (2000) exactly.
	for i := 1; i <= spillActs; i++ {
		rows := h.OnActivation(513, clm.One)
		if i < spillActs && rows != nil {
			t.Fatalf("premature mitigation at post-spill activation %d", i)
		}
		if i == spillActs && (len(rows) != 1 || rows[0] != 513) {
			t.Fatalf("post-spill activation %d mitigated %v, want row 513", i, rows)
		}
	}
}

func TestHydraResetWindow(t *testing.T) {
	h := NewHydra(4000)
	for i := 0; i < 1500; i++ {
		h.OnActivation(9, clm.One)
	}
	h.ResetWindow()
	if h.count(9) != 0 {
		t.Fatalf("window reset left count %v", h.count(9).Float())
	}
	if rows := h.OnActivation(9, clm.One); rows != nil {
		t.Fatalf("unexpected mitigation after reset: %v", rows)
	}
}

// ---- ABACuS ----

func TestABACuSEntriesValues(t *testing.T) {
	// Calibration: 2720 counters per rank at TRH=1000 (the paper's
	// provisioning), divided over the channel's 64 banks and scaled
	// inversely with the threshold.
	if got := ABACuSEntries(1000); got != 43 {
		t.Fatalf("entries(1K) = %d, want 43", got)
	}
	if got := ABACuSEntries(4000); got != 11 {
		t.Fatalf("entries(4K) = %d, want 11", got)
	}
	if got := ABACuSEntries(1e9); got != 1 {
		t.Fatalf("entries floor = %d, want 1", got)
	}
}

func TestABACuSDetectsHeavyHitter(t *testing.T) {
	a := NewABACuS(4000)
	internal := 4000 / ABACuSInternalDivisor
	for i := 1; i <= internal; i++ {
		rows := a.OnActivation(7, clm.One)
		if i < internal {
			if rows != nil {
				t.Fatalf("premature mitigation at activation %d", i)
			}
			continue
		}
		if len(rows) != 1 || rows[0] != 7 {
			t.Fatalf("activation %d mitigated %v, want row 7", i, rows)
		}
	}
	if a.mitigations != 1 || a.count(7) != 0 {
		t.Fatalf("after mitigation: count=%v mitigations=%d", a.count(7).Float(), a.mitigations)
	}
}

func TestABACuSEvictionDoesNotInherit(t *testing.T) {
	a := NewABACuS(1e9) // one-entry shard
	if a.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", a.Entries())
	}
	for i := 0; i < 5; i++ {
		a.OnActivation(1, clm.One)
	}
	a.OnActivation(2, clm.One)
	// The newcomer replaced row 1 and started from its own activation —
	// no Space-Saving inheritance (unlike Graphene's eviction).
	if got := a.count(2); got != clm.One {
		t.Fatalf("newcomer count = %v, want 1 (no inheritance)", got.Float())
	}
	if got := a.count(1); got != 0 {
		t.Fatalf("evicted row still tracked at %v", got.Float())
	}
}

// TestABACuSThrashUndercounts documents the exposure the adversarial
// synthesis loop exploits: rows that alternate through a full table are
// evicted before accumulating, so the shard never mitigates a workload
// whose per-row pressure is real but never resident. Graphene's
// spillover inheritance closes exactly this gap; ABACuS's plain
// replacement does not, and the attackzoo table quantifies the cost.
func TestABACuSThrashUndercounts(t *testing.T) {
	a := NewABACuS(1e9) // one-entry shard: any alternation thrashes
	for i := 0; i < 10000; i++ {
		a.OnActivation(1, clm.One)
		a.OnActivation(2, clm.One)
	}
	if a.mitigations != 0 {
		t.Fatalf("thrash produced %d mitigations; the model should under-count", a.mitigations)
	}
	if a.count(1) > clm.One || a.count(2) > clm.One {
		t.Fatalf("thrashed counts %v/%v exceed one activation",
			a.count(1).Float(), a.count(2).Float())
	}
}

// ---- Checkpoint snapshots ----

// TestZooSnapshotRoundTrip pins the Snapshotter contract for the zoo
// extensions: a tracker restored from a JSON-round-tripped snapshot is
// behaviorally identical — same mitigation decisions for the same
// future activation stream as the original that kept running.
func TestZooSnapshotRoundTrip(t *testing.T) {
	for _, name := range []string{"hydra", "abacus"} {
		t.Run(name, func(t *testing.T) {
			info, ok := ByName(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			live := info.New(4000, 80, stats.NewRand(1)).(Snapshotter)
			rng := stats.NewRand(99)
			step := func(tr Snapshotter) []int64 {
				row := int64(rng.Intn(1024))
				return tr.(Tracker).OnActivation(row, clm.One)
			}
			for i := 0; i < 5000; i++ {
				step(live)
			}
			snap := live.Snapshot()
			data, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var back State
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			restored := info.New(4000, 80, stats.NewRand(2)).(Snapshotter)
			if err := restored.RestoreState(back); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}
			// Same future stream, same decisions. The shared rng drives
			// both trackers through identical rows.
			suffix := rng.State()
			futureRows := func() []int64 {
				r := stats.NewRand(0)
				r.SetState(suffix)
				rows := make([]int64, 5000)
				for i := range rows {
					rows[i] = int64(r.Intn(1024))
				}
				return rows
			}()
			for i, row := range futureRows {
				a := live.(Tracker).OnActivation(row, clm.One)
				b := restored.(Tracker).OnActivation(row, clm.One)
				if len(a) != len(b) || (len(a) == 1 && a[0] != b[0]) {
					t.Fatalf("step %d diverged: live=%v restored=%v", i, a, b)
				}
			}
			if live.Snapshot().Mitigations != restored.Snapshot().Mitigations {
				t.Fatal("mitigation counters diverged")
			}
		})
	}
}

func TestZooSnapshotKindMismatch(t *testing.T) {
	h := NewHydra(4000)
	if err := h.RestoreState(State{Kind: "abacus"}); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("kind mismatch error = %v, want ErrBadSpec", err)
	}
	a := NewABACuS(4000)
	if err := a.RestoreState(State{Kind: "hydra"}); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("kind mismatch error = %v, want ErrBadSpec", err)
	}
}

// TestSlotRestoreRejectsNonPrefix: a counter-table snapshot must hold
// exactly the slots 0..n−1 with distinct rows, the only layouts a table
// reaches; anything else is a corrupt checkpoint and a typed error. A
// permutation of the prefix is the same table and is accepted.
func TestSlotRestoreRejectsNonPrefix(t *testing.T) {
	two := []Snapshotter{ // two entries each
		NewGrapheneRaw(2, 4*clm.One),
		NewMithrilRaw(2, 80),
		NewABACuS(abacusAnchor / 2),
	}
	bad := []struct {
		name  string
		slots []SlotState
	}{
		{"hole", []SlotState{{Slot: 0, Row: 1}, {Slot: 2, Row: 3}}},
		{"no slot 0", []SlotState{{Slot: 1, Row: 1}}},
		{"negative", []SlotState{{Slot: -1, Row: 1}}},
		{"repeated slot", []SlotState{{Slot: 0, Row: 1}, {Slot: 0, Row: 2}}},
		{"repeated row", []SlotState{{Slot: 0, Row: 1}, {Slot: 1, Row: 1}}},
		{"over capacity", []SlotState{{Slot: 0, Row: 1}, {Slot: 1, Row: 2}, {Slot: 2, Row: 3}}},
	}
	for _, tr := range two {
		kind := tr.(Tracker).Name()
		for _, tc := range bad {
			err := tr.RestoreState(State{Kind: kind, Slots: tc.slots})
			if !errors.Is(err, errs.ErrBadSpec) {
				t.Errorf("%s %s: RestoreState error = %v, want ErrBadSpec", kind, tc.name, err)
			}
		}
		swapped := []SlotState{{Slot: 1, Row: 5, Count: clm.One}, {Slot: 0, Row: 7, Count: 2 * clm.One}}
		if err := tr.RestoreState(State{Kind: kind, Slots: swapped}); err != nil {
			t.Fatalf("%s: permuted prefix rejected: %v", kind, err)
		}
		want := []SlotState{swapped[1], swapped[0]}
		if got := tr.Snapshot().Slots; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: restored slots %+v, want %+v", kind, got, want)
		}
	}
}

// TestZooActivationDoesNotAllocate: every registered tracker, once warm,
// records activations without allocating, including the activations
// that return a mitigation (and, for in-DRAM trackers, the RFM issued
// every 80 activations). Mitigation rows live in a tracker-owned buffer
// (the Tracker lifetime rule). Each measured run is a batch of
// activations long enough to mitigate several times, because
// AllocsPerRun truncates its per-run average.
func TestZooActivationDoesNotAllocate(t *testing.T) {
	rows := []int64{1, 3, 5, 7}
	for _, info := range Registry() {
		tr := info.New(4000, 80, stats.NewRand(1))
		acts, mitigations := 0, 0
		batch := func() {
			for i := 0; i < 10000; i++ {
				mitigations += len(tr.OnActivation(rows[acts%len(rows)], clm.One))
				acts++
				if acts%80 == 0 {
					mitigations += len(tr.OnRFM())
				}
			}
		}
		batch()
		before := mitigations
		if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
			t.Errorf("%s: %v allocations per %d activations, want 0", info.Name, allocs, 10000)
		}
		if mitigations-before < 21 {
			t.Errorf("%s: %d mitigations in 21 batches; the result buffer went unexercised",
				info.Name, mitigations-before)
		}
	}
}
