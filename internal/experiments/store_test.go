package experiments

import (
	"bytes"
	"errors"
	"testing"

	"impress/internal/errs"
	"impress/internal/resultstore"
)

// openStore fails the test instead of returning an error.
func openStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// renderFig3 runs Figure3 through r and returns its rendering.
func renderFig3(r *Runner) []byte {
	var buf bytes.Buffer
	Figure3(r).Render(&buf)
	return buf.Bytes()
}

// TestWarmStoreServesIdenticalTablesWithZeroSims is the acceptance
// criterion of the persistent store: a second runner (a stand-in for a
// second process — it shares nothing in memory with the first) renders
// the same table byte-identically from the store alone.
func TestWarmStoreServesIdenticalTablesWithZeroSims(t *testing.T) {
	dir := t.TempDir()

	cold := NewRunner(tinyScale())
	cold.Store = openStore(t, dir)
	coldTable := renderFig3(cold)
	if cold.Sims() == 0 {
		t.Fatal("cold run must simulate")
	}

	warm := NewRunner(tinyScale())
	warm.Store = openStore(t, dir)
	warmTable := renderFig3(warm)
	if warm.Sims() != 0 {
		t.Fatalf("warm run executed %d simulations; every result should come from the store", warm.Sims())
	}
	if c := warm.Store.Counters(); c.Hits == 0 || c.Misses != 0 {
		t.Fatalf("warm-run store counters = %+v", c)
	}
	if !bytes.Equal(coldTable, warmTable) {
		t.Fatal("warm-store rendering differs from the cold run")
	}

	// And an uncached runner agrees, so the store changed nothing.
	direct := NewRunner(tinyScale())
	if !bytes.Equal(renderFig3(direct), coldTable) {
		t.Fatal("cached rendering differs from an uncached run")
	}
}

// TestShardPartitionIsExactCover checks the ShardSpecs contract for several
// shard counts: shards are pairwise disjoint and together cover the
// deduplicated spec universe exactly.
func TestShardPartitionIsExactCover(t *testing.T) {
	r := NewRunner(QuickScale())
	// Each definition's own universe, concatenated: the figures share
	// baselines, so the list repeats specs ShardSpecs must deduplicate.
	var specs []RunSpec
	for _, d := range Definitions() {
		fig, err := SpecsFor(r, RunOptions{Only: []string{d.ID}})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, fig...)
	}
	whole := map[string]bool{}
	for _, s := range specs {
		whole[string(r.storeSpec(s).Key())] = true
	}
	for _, n := range []int{1, 2, 3, 5, 8} {
		covered := map[string]int{}
		total := 0
		for i := 1; i <= n; i++ {
			shard, err := r.ShardSpecs(specs, i, n)
			if err != nil {
				t.Fatal(err)
			}
			total += len(shard)
			for _, s := range shard {
				covered[string(r.storeSpec(s).Key())]++
			}
		}
		if total != len(whole) {
			t.Errorf("n=%d: shard sizes sum to %d, want the %d deduplicated specs", n, total, len(whole))
		}
		for k, c := range covered {
			if c != 1 {
				t.Errorf("n=%d: spec %s assigned to %d shards", n, k[:12], c)
			}
		}
		if len(covered) != len(whole) {
			t.Errorf("n=%d: shards cover %d specs, want %d", n, len(covered), len(whole))
		}
	}
	if r.Sims() != 0 {
		t.Fatalf("partitioning must not simulate (ran %d)", r.Sims())
	}
}

// TestShardSpecsRejectsBadIndices pins the daemon-facing seam: shard
// parameters from the wire come back as typed errors, never panics.
func TestShardSpecsRejectsBadIndices(t *testing.T) {
	r := NewRunner(tinyScale())
	for _, bad := range [][2]int{{0, 2}, {3, 2}, {1, 0}, {-1, 3}, {2, -2}} {
		out, err := r.ShardSpecs(nil, bad[0], bad[1])
		if err == nil {
			t.Errorf("ShardSpecs(%d, %d) = %v, want error", bad[0], bad[1], out)
			continue
		}
		if !errors.Is(err, errs.ErrBadSpec) {
			t.Errorf("ShardSpecs(%d, %d) error %v does not match errs.ErrBadSpec", bad[0], bad[1], err)
		}
	}
	if _, err := r.ShardSpecs(nil, 1, 1); err != nil {
		t.Fatalf("ShardSpecs(1, 1) = %v, want nil error", err)
	}
}

// TestSpecsForMatchesSweepUniverse checks that the sharding seam sees
// exactly the universe the sweep itself will simulate: no selection
// equals the deduplicated union of every definition's own selection, an
// -only selection names that figure's distinct runs, analytical
// selections are empty, and selection errors are typed.
func TestSpecsForMatchesSweepUniverse(t *testing.T) {
	r := NewRunner(QuickScale())
	keysOf := func(specs []RunSpec) map[string]bool {
		m := map[string]bool{}
		for _, s := range specs {
			m[string(r.storeSpec(s).Key())] = true
		}
		return m
	}

	full, err := SpecsFor(r, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, d := range Definitions() {
		fig, err := SpecsFor(r, RunOptions{Only: []string{d.ID}})
		if err != nil {
			t.Fatal(err)
		}
		for k := range keysOf(fig) {
			want[k] = true
		}
	}
	if got := keysOf(full); len(got) != len(want) || len(full) != len(want) {
		t.Fatalf("SpecsFor(all) has %d specs (%d distinct), want the %d-spec deduplicated universe",
			len(full), len(got), len(want))
	}

	fig3, err := SpecsFor(r, RunOptions{Only: []string{"fig3"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(fig3); len(got) != fig3Specs || len(fig3) != fig3Specs {
		t.Fatalf("SpecsFor(fig3) has %d specs (%d distinct), want %d", len(fig3), len(got), fig3Specs)
	}

	analytical, err := SpecsFor(r, RunOptions{Analytical: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(analytical) != 0 {
		t.Fatalf("SpecsFor(analytical) = %d specs, want none", len(analytical))
	}

	if _, err := SpecsFor(r, RunOptions{Only: []string{"no-such-figure"}}); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("SpecsFor(unknown ID) error = %v, want errs.ErrBadSpec", err)
	}
	if r.Sims() != 0 {
		t.Fatalf("SpecsFor must not simulate (ran %d)", r.Sims())
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "standard", "full"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, sc, err)
		}
	}
	if _, err := ScaleByName("huge"); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("ScaleByName(huge) error = %v, want errs.ErrBadSpec", err)
	}
}

// TestShardedSweepMergesThroughStore populates a shared store from two
// disjoint shard runners and checks that a third runner assembles the
// full figure without simulating anything — the merge path of a fleet
// sweep.
func TestShardedSweepMergesThroughStore(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded sweep simulation skipped in -short mode")
	}
	dir := t.TempDir()
	scale := tinyScale()

	reference := NewRunner(scale)
	want := renderFig3(reference)

	specs, err := SpecsFor(NewRunner(scale), RunOptions{Only: []string{"fig3"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		shardRunner := NewRunner(scale)
		shardRunner.Store = openStore(t, dir)
		shard, err := shardRunner.ShardSpecs(specs, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		shardRunner.prefetch(shard)
	}

	merge := NewRunner(scale)
	merge.Store = openStore(t, dir)
	if got := renderFig3(merge); !bytes.Equal(got, want) {
		t.Fatal("merged rendering differs from the single-process run")
	}
	if merge.Sims() != 0 {
		t.Fatalf("merge run executed %d simulations; both shards should have covered the figure", merge.Sims())
	}
}
