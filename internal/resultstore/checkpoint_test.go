package resultstore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"impress/internal/sim"
)

// TestLegacyRecordStillReads is the record-kind compatibility contract:
// the checked-in fixture was written by the store before the Kind field
// existed, and a current store must keep answering for it — a hit with
// bit-identical result values, listed as a result entry, spared by GC.
func TestLegacyRecordStillReads(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "legacy_record_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(fixture, []byte(`"kind"`)) {
		t.Fatal("fixture must stay a pre-Kind record; regenerating it defeats the test")
	}
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := mustSpec(t, testConfig(t))
	if err := os.MkdirAll(filepath.Dir(st.path(sp.Key())), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(sp.Key()), fixture, 0o644); err != nil {
		t.Fatal(err)
	}

	got, ok := st.Get(sp)
	if !ok {
		t.Fatal("a pre-Kind record must stay a hit for its spec")
	}
	assertResultEqual(t, got, testResult())

	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Kind != "" {
		t.Fatalf("legacy record must list as a result entry, got %+v", entries)
	}
	removed, _, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("gc removed %d files; the legacy record is valid and must stay", removed)
	}
	if _, ok := st.Get(sp); !ok {
		t.Fatal("legacy record lost after GC")
	}
}

// TestCheckpointPutGetRoundTrip covers the checkpoint side of the store:
// payloads round-trip byte-identically, the checkpoint and result
// namespaces never collide for the same spec, specs differing only in
// run budget or sampling fields share one checkpoint, and stats/GC
// treat checkpoint records as first-class entries.
func TestCheckpointPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := mustSpec(t, testConfig(t))
	payload := []byte("IMPCKPT\x01 opaque payload bytes")

	if _, ok := st.GetCheckpoint(sp); ok {
		t.Fatal("empty store must miss checkpoints")
	}
	if err := st.PutCheckpoint(sp, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := st.GetCheckpoint(sp)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("checkpoint round trip: ok=%v got %q", ok, got)
	}

	// The same spec's result namespace is untouched, and vice versa.
	if _, ok := st.Get(sp); ok {
		t.Fatal("a checkpoint record must not answer result Gets")
	}
	if err := st.Put(sp, testResult()); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.GetCheckpoint(sp); !ok || !bytes.Equal(got, payload) {
		t.Fatal("storing the result must not disturb the checkpoint entry")
	}

	// Specs that differ only past the warmup boundary share the entry.
	cfgLonger := testConfig(t)
	cfgLonger.RunInstructions *= 7
	if got, ok := st.GetCheckpoint(mustSpec(t, cfgLonger)); !ok || !bytes.Equal(got, payload) {
		t.Fatal("a longer run budget must reuse the same warmup checkpoint")
	}
	cfgSampled := testConfig(t)
	cfgSampled.Clock = sim.ClockSampled
	cfgSampled.RunInstructions = 1_000_000
	cfgSampled.MaxRelError = 0.05
	if got, ok := st.GetCheckpoint(mustSpec(t, cfgSampled)); !ok || !bytes.Equal(got, payload) {
		t.Fatal("a sampled run over the same warmup prefix must reuse the checkpoint")
	}
	// A different warmup prefix must not.
	cfgOther := testConfig(t)
	cfgOther.Seed++
	if _, ok := st.GetCheckpoint(mustSpec(t, cfgOther)); ok {
		t.Fatal("a different seed warms different state and must miss")
	}

	c := st.Counters()
	if c.CheckpointHits != 4 || c.CheckpointMisses != 2 || c.CheckpointWrites != 1 {
		t.Fatalf("checkpoint counters = %+v", c)
	}
	if c.Hits != 0 || c.Misses != 1 || c.Writes != 1 {
		t.Fatalf("result counters must stay independent, got %+v", c)
	}

	s, err := st.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Entries != 2 || s.Invalid != 0 {
		t.Fatalf("stats must count the checkpoint as a valid entry: %+v", s)
	}
	removed, _, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("gc removed %d files, want checkpoint entries spared", removed)
	}
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range entries {
		kinds[e.Kind]++
	}
	if kinds[""] != 1 || kinds[KindCheckpoint] != 1 {
		t.Fatalf("entries must carry kinds, got %+v", entries)
	}
}

// simConfig returns a config small enough to simulate in-test but with a
// real warmup phase to checkpoint.
func simConfig(t *testing.T) sim.Config {
	t.Helper()
	cfg := testConfig(t)
	cfg.WarmupInstructions = 2_000
	cfg.RunInstructions = 4_000
	return cfg
}

// TestAttachCheckpointsColdThenWarm drives the full warmup-reuse cycle
// through real simulations: a cold run publishes its checkpoint to the
// store, and a second spec sharing the warmup prefix — here a different
// run budget — restores it instead of re-warming, with a result
// bit-identical to its own straight-through run.
func TestAttachCheckpointsColdThenWarm(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	cold := simConfig(t)
	if restored := st.AttachCheckpoints(&cold, mustSpec(t, cold), true); restored {
		t.Fatal("an empty store cannot restore a warmup")
	}
	if cold.OnCheckpoint == nil {
		t.Fatal("a cold attach must install the checkpoint publisher")
	}
	runSim(t, cold)
	if c := st.Counters(); c.CheckpointWrites != 1 {
		t.Fatalf("the cold run must have published its checkpoint: %+v", c)
	}

	warm := simConfig(t)
	warm.RunInstructions *= 2 // a different spec, same warmup prefix
	reference := runSim(t, warm)
	if restored := st.AttachCheckpoints(&warm, mustSpec(t, warm), true); !restored {
		t.Fatal("the second spec must restore the stored warmup checkpoint")
	}
	if warm.RestoreCheckpoint == nil || warm.OnCheckpoint != nil {
		t.Fatalf("a warm attach must install only the restore payload")
	}
	got := runSim(t, warm)
	if !reflect.DeepEqual(got, reference) {
		t.Fatalf("restored run diverged from straight-through:\nrestored %+v\nstraight %+v", got, reference)
	}
}

// TestAttachCheckpointsEdgeCases pins the no-op paths: nothing to attach
// without a warmup phase, caller-managed checkpoint hooks are left
// alone, and a corrupt stored payload demotes the attach to a cold run
// instead of installing garbage.
func TestAttachCheckpointsEdgeCases(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	noWarmup := simConfig(t)
	noWarmup.WarmupInstructions = 0
	if st.AttachCheckpoints(&noWarmup, mustSpec(t, noWarmup), true) || noWarmup.OnCheckpoint != nil {
		t.Fatal("a run without warmup has nothing to checkpoint")
	}

	managed := simConfig(t)
	managed.OnCheckpoint = func([]byte) {}
	before := reflect.ValueOf(managed.OnCheckpoint).Pointer()
	if st.AttachCheckpoints(&managed, mustSpec(t, managed), true) {
		t.Fatal("caller-managed hooks must short-circuit the attach")
	}
	if reflect.ValueOf(managed.OnCheckpoint).Pointer() != before {
		t.Fatal("the caller's OnCheckpoint hook was replaced")
	}

	// A stored payload that does not decode is a miss, not a restore.
	cfg := simConfig(t)
	if err := st.PutCheckpoint(mustSpec(t, cfg), []byte("IMPCKPT\x01 not a checkpoint")); err != nil {
		t.Fatal(err)
	}
	if st.AttachCheckpoints(&cfg, mustSpec(t, cfg), true) {
		t.Fatal("an undecodable stored payload must demote to a cold attach")
	}
	if cfg.RestoreCheckpoint != nil || cfg.OnCheckpoint == nil {
		t.Fatal("the demoted attach must fall back to the publisher path")
	}
}

// TestAttachCheckpointsWithoutPublishing pins the attach of a caller
// with no later reader for its checkpoint (a table sweep): a miss
// installs no publisher, so the run writes nothing, while a checkpoint
// another run published is still restored.
func TestAttachCheckpointsWithoutPublishing(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	cold := simConfig(t)
	if st.AttachCheckpoints(&cold, mustSpec(t, cold), false) {
		t.Fatal("an empty store cannot restore a warmup")
	}
	if cold.OnCheckpoint != nil || cold.RestoreCheckpoint != nil {
		t.Fatal("an attach without publishing must leave a cold config untouched")
	}
	runSim(t, cold)
	if c := st.Counters(); c.CheckpointWrites != 0 {
		t.Fatalf("a run attached without publishing wrote a checkpoint: %+v", c)
	}

	published := simConfig(t)
	published.RunInstructions *= 2 // another spec, same warmup prefix
	st.AttachCheckpoints(&published, mustSpec(t, published), true)
	runSim(t, published)

	warm := simConfig(t)
	reference := runSim(t, warm)
	if !st.AttachCheckpoints(&warm, mustSpec(t, warm), false) {
		t.Fatal("an attach without publishing must still restore a stored checkpoint")
	}
	if got := runSim(t, warm); !reflect.DeepEqual(got, reference) {
		t.Fatalf("restored run diverged from straight-through:\nrestored %+v\nstraight %+v", got, reference)
	}
}

func runSim(t *testing.T, cfg sim.Config) sim.Result {
	t.Helper()
	res, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
