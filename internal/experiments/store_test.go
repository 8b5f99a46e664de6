package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// TestShardPartitionIsExactCover checks the Plan.Shard contract for
// several shard counts: shards are pairwise disjoint and together cover
// the plan's deduplicated spec universe exactly. The figures share
// baselines, so the plan's calls repeat specs its shards must not.
func TestShardPartitionIsExactCover(t *testing.T) {
	r := NewRunner(QuickScale())
	p, err := PlanTables(r, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	whole := map[string]bool{}
	for _, d := range p.defs {
		for _, i := range d.runs {
			whole[p.runs[i].key] = true
		}
	}
	for _, n := range []int{1, 2, 3, 5, 8} {
		covered := map[string]int{}
		total := 0
		for i := 1; i <= n; i++ {
			shard, err := p.Shard(i, n)
			if err != nil {
				t.Fatal(err)
			}
			total += shard.Len()
			for _, e := range shard.runs {
				covered[p.runs[e].key]++
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

// TestPlanShardRejectsBadIndices pins the daemon-facing seam: shard
// parameters from the wire come back as typed errors, never panics.
func TestPlanShardRejectsBadIndices(t *testing.T) {
	p, err := PlanTables(NewRunner(tinyScale()), RunOptions{Only: []string{"fig3"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]int{{0, 2}, {3, 2}, {1, 0}, {-1, 3}, {2, -2}} {
		out, err := p.Shard(bad[0], bad[1])
		if err == nil {
			t.Errorf("Shard(%d, %d) = %d specs, want error", bad[0], bad[1], out.Len())
			continue
		}
		if !errors.Is(err, errs.ErrBadSpec) {
			t.Errorf("Shard(%d, %d) error %v does not match errs.ErrBadSpec", bad[0], bad[1], err)
		}
	}
	if _, err := p.Shard(1, 1); err != nil {
		t.Fatalf("Shard(1, 1) = %v, want nil error", err)
	}
}

// TestPlanSpecsMatchSweepUniverse checks that the sharding seam sees
// exactly the universe the sweep itself will simulate: no selection
// equals the deduplicated union of every definition's own selection, an
// -only selection names that figure's distinct runs, analytical
// selections are empty, and selection errors are typed.
func TestPlanSpecsMatchSweepUniverse(t *testing.T) {
	r := NewRunner(QuickScale())
	keysOf := func(specs []RunSpec) map[string]bool {
		m := map[string]bool{}
		for _, s := range specs {
			m[r.derive(s).key] = true
		}
		return m
	}

	full := planSpecs(t, r, RunOptions{})
	want := map[string]bool{}
	for _, d := range Definitions() {
		for k := range keysOf(planSpecs(t, r, RunOptions{Only: []string{d.ID}})) {
			want[k] = true
		}
	}
	if got := keysOf(full); len(got) != len(want) || len(full) != len(want) {
		t.Fatalf("Specs(all) has %d specs (%d distinct), want the %d-spec deduplicated universe",
			len(full), len(got), len(want))
	}

	fig3 := planSpecs(t, r, RunOptions{Only: []string{"fig3"}})
	if got := keysOf(fig3); len(got) != fig3Specs || len(fig3) != fig3Specs {
		t.Fatalf("Specs(fig3) has %d specs (%d distinct), want %d", len(fig3), len(got), fig3Specs)
	}

	if analytical := planSpecs(t, r, RunOptions{Analytical: true}); len(analytical) != 0 {
		t.Fatalf("Specs(analytical) = %d specs, want none", len(analytical))
	}

	if _, err := PlanTables(r, RunOptions{Only: []string{"no-such-figure"}}); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("PlanTables(unknown ID) error = %v, want errs.ErrBadSpec", err)
	}
	if r.Sims() != 0 {
		t.Fatalf("planning must not simulate (ran %d)", r.Sims())
	}
}

// TestPlansShareNoWarmupPrefix pins why a table sweep publishes no
// warmup checkpoints (Runner.run): at every named scale, no two
// distinct specs of the full plan share a warmup prefix, so no spec of
// a sweep could restore another one's checkpoint. Planning simulates
// nothing.
func TestPlansShareNoWarmupPrefix(t *testing.T) {
	for _, name := range []string{"quick", "standard", "full"} {
		scale, err := ScaleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := PlanTables(NewRunner(scale), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[resultstore.Key]string, p.Len())
		for _, i := range p.distinct {
			e := &p.runs[i]
			ck := e.sp.CheckpointKey()
			desc := fmt.Sprintf("%s (TRH=%g, RFMTH=%d)", runLabel(e.cfg, e.sp), e.cfg.DesignTRH, e.cfg.RFMTH)
			if other, ok := seen[ck]; ok {
				t.Fatalf("%s scale: %s and %s share a warmup prefix; a table that shares one needs a plan-aware checkpoint publish rule in Runner.run",
					name, other, desc)
			}
			seen[ck] = desc
		}
	}
}

// TestSweepPublishesNoCheckpoints: a store-backed Plan.Tables sweep
// simulates warmups but writes no warmup checkpoint, since nothing in
// the sweep could read one.
func TestSweepPublishesNoCheckpoints(t *testing.T) {
	r := NewRunner(tinyScale())
	r.Store = openStore(t, t.TempDir())
	if _, err := RunTables(context.Background(), r, RunOptions{Only: []string{"fig3"}}); err != nil {
		t.Fatal(err)
	}
	if r.Sims() == 0 {
		t.Fatal("the cold sweep must simulate")
	}
	if c := r.Store.Counters(); c.CheckpointWrites != 0 {
		t.Fatalf("the sweep wrote %d warmup checkpoints", c.CheckpointWrites)
	}
	entries, err := r.Store.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Kind == resultstore.KindCheckpoint {
			t.Fatalf("the sweep left checkpoint entry %s in the store", e.Key)
		}
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

	for i := 1; i <= 2; i++ {
		shardRunner := NewRunner(scale)
		shardRunner.Store = openStore(t, dir)
		p, err := PlanTables(shardRunner, RunOptions{Only: []string{"fig3"}})
		if err != nil {
			t.Fatal(err)
		}
		shard, err := p.Shard(i, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := shard.Prefetch(context.Background()); err != nil {
			t.Fatal(err)
		}
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
