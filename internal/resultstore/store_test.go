package resultstore

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"impress/internal/core"
	"impress/internal/memctrl"
	"impress/internal/security"
	"impress/internal/sim"
	"impress/internal/trace"
)

// testConfig returns a small but fully-populated simulation config.
func testConfig(t *testing.T) sim.Config {
	t.Helper()
	w, err := trace.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(w, core.NewDesign(core.ImpressP), sim.TrackerGraphene)
	cfg.WarmupInstructions = 1000
	cfg.RunInstructions = 5000
	return cfg
}

// testResult builds a distinctive result without running a simulation
// (the store does not interpret results).
func testResult() sim.Result {
	return sim.Result{
		Workload:       "gcc",
		IPC:            []float64{1.25, 0.3333333333333333, 2.0000000000000004},
		WeightedIPCSum: 3.5833333333333335,
		Mem:            memctrl.Stats{Reads: 42, DemandACTs: 7, ReadLatencySum: 123456789},
		LLCHitRate:     0.9999999999999999,
		Cycles:         98765,
	}
}

// testAttackSpec is a fully-populated security-evaluation spec; the
// store does not run it.
func testAttackSpec() AttackSpec {
	return AttackSpec{
		Pattern: "hammer", Tracker: "graphene",
		Design: core.NewDesign(core.ImpressP), DesignTRH: 4000, AlphaTrue: 1, Seed: 42,
	}
}

// testAttackResult builds a distinctive harness result without running
// the harness.
func testAttackResult() security.Result {
	return security.Result{
		Pattern: "hammer", MaxDamage: 0.3333333333333333,
		DemandACTs: 1000, Mitigations: 12, Elapsed: 987654, MitigationTime: 4321,
	}
}

func mustSpec(t *testing.T, cfg sim.Config) Spec {
	t.Helper()
	sp, err := SpecFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestKeyDeterministicAndDistinguishing(t *testing.T) {
	base := testConfig(t)
	if mustSpec(t, base).Key() != mustSpec(t, base).Key() {
		t.Fatal("same config must produce the same key")
	}
	mutations := map[string]func(*sim.Config){
		"seed":    func(c *sim.Config) { c.Seed++ },
		"warmup":  func(c *sim.Config) { c.WarmupInstructions++ },
		"run":     func(c *sim.Config) { c.RunInstructions++ },
		"tracker": func(c *sim.Config) { c.Tracker = sim.TrackerPARA },
		"design":  func(c *sim.Config) { c.Design = core.NewDesign(core.ExPress) },
		"trh":     func(c *sim.Config) { c.DesignTRH = 2000 },
		"rfmth":   func(c *sim.Config) { c.RFMTH = 40 },
		"cores":   func(c *sim.Config) { c.Cores = 4 },
		"llc":     func(c *sim.Config) { c.LLC.Ways = 8 },
		"cpu":     func(c *sim.Config) { c.CPU.ROBSize = 128 },
		"latency": func(c *sim.Config) { c.LLCLatency = 40 },
		"workload": func(c *sim.Config) {
			w, err := trace.WorkloadByName("mcf")
			if err != nil {
				t.Fatal(err)
			}
			c.Workload = w
		},
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if mustSpec(t, cfg).Key() == mustSpec(t, base).Key() {
			t.Errorf("changing %s must change the key", name)
		}
	}
}

// TestKeyExcludesClockIrrelevantFields locks the invalidation rule of
// DESIGN.md §8: clock mode, the NoFastPath derivative and the MaxCycles
// safety net are excluded from the key because all of them are
// contractually result-neutral.
func TestKeyExcludesClockIrrelevantFields(t *testing.T) {
	base := testConfig(t)
	want := mustSpec(t, base).Key()
	for name, mutate := range map[string]func(*sim.Config){
		"clock cycle-accurate": func(c *sim.Config) { c.Clock = sim.ClockCycleAccurate },
		"cpu NoFastPath":       func(c *sim.Config) { c.CPU.NoFastPath = true },
		"max cycles":           func(c *sim.Config) { c.MaxCycles = 12345 },
	} {
		cfg := base
		mutate(&cfg)
		if got := mustSpec(t, cfg).Key(); got != want {
			t.Errorf("%s must not change the key (got %s, want %s)", name, got, want)
		}
	}
}

// TestTraceFileKeying checks that file replays are keyed by content: the
// same bytes at a different path share a key, different content does not,
// and the fields the file overrides (workload, cores, seed) are excluded.
func TestTraceFileKeying(t *testing.T) {
	dir := t.TempDir()
	w, err := trace.WorkloadByName("copy")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.RecordContext(context.Background(), w, 2, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	pathA := filepath.Join(dir, "a.trace")
	pathB := filepath.Join(dir, "b.trace")
	if err := rec.WriteFile(pathA); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteFile(pathB); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t)
	cfg.TraceFile = pathA
	spA := mustSpec(t, cfg)
	if spA.TraceSHA256 == "" {
		t.Fatal("trace-file spec must carry the content hash")
	}
	if spA.Workload != "" || spA.Cores != 0 || spA.Seed != 0 {
		t.Fatalf("file-overridden fields must be cleared, got %+v", spA)
	}

	cfgB := cfg
	cfgB.TraceFile = pathB
	// The file also overrides cores and seed, so differing values there
	// must not split the key.
	cfgB.Cores, cfgB.Seed = 99, 99
	if mustSpec(t, cfgB).Key() != spA.Key() {
		t.Fatal("identical trace content at a different path must share the key")
	}

	other, err := trace.RecordContext(context.Background(), w, 2, 101, 7)
	if err != nil {
		t.Fatal(err)
	}
	pathC := filepath.Join(dir, "c.trace")
	if err := other.WriteFile(pathC); err != nil {
		t.Fatal(err)
	}
	cfgC := cfg
	cfgC.TraceFile = pathC
	if mustSpec(t, cfgC).Key() == spA.Key() {
		t.Fatal("different trace content must change the key")
	}

	cfgMissing := cfg
	cfgMissing.TraceFile = filepath.Join(dir, "missing.trace")
	if _, err := SpecFor(cfgMissing); err == nil {
		t.Fatal("an unreadable trace file must be an error, not a silent key")
	}

	if _, err := spA.Config(); err == nil {
		t.Fatal("a trace-file entry must refuse reconstruction")
	}
}

func TestSpecConfigRoundTrip(t *testing.T) {
	cfg := testConfig(t)
	sp := mustSpec(t, cfg)
	back, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	if got := mustSpec(t, back); got.Key() != sp.Key() {
		t.Fatalf("reconstructed config re-keys to %s, want %s", got.Key(), sp.Key())
	}
	if back.Workload.Name != cfg.Workload.Name || back.Seed != cfg.Seed ||
		back.WarmupInstructions != cfg.WarmupInstructions {
		t.Fatalf("reconstructed config drifted: %+v", back)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := mustSpec(t, testConfig(t))
	if _, ok := st.Get(sp); ok {
		t.Fatal("empty store must miss")
	}
	res := testResult()
	if err := st.Put(sp, res); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(sp)
	if !ok {
		t.Fatal("store must hit after Put")
	}
	assertResultEqual(t, got, res)

	// A second handle on the same directory (the cross-process case)
	// shares the entries and the exact float values.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := st2.Get(sp)
	if !ok {
		t.Fatal("fresh handle must hit the shared directory")
	}
	assertResultEqual(t, got2, res)

	c := st.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Writes != 1 || c.WriteErrors != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// assertResultEqual compares results field by field so float round-trip
// regressions name the field.
func assertResultEqual(t *testing.T, got, want sim.Result) {
	t.Helper()
	if got.Workload != want.Workload || got.Cycles != want.Cycles || got.Mem != want.Mem {
		t.Fatalf("result drifted: got %+v want %+v", got, want)
	}
	if got.WeightedIPCSum != want.WeightedIPCSum || got.LLCHitRate != want.LLCHitRate {
		t.Fatalf("float fields not bit-identical: got %v/%v want %v/%v",
			got.WeightedIPCSum, got.LLCHitRate, want.WeightedIPCSum, want.LLCHitRate)
	}
	if len(got.IPC) != len(want.IPC) {
		t.Fatalf("IPC length %d, want %d", len(got.IPC), len(want.IPC))
	}
	for i := range got.IPC {
		if got.IPC[i] != want.IPC[i] {
			t.Fatalf("IPC[%d] = %v, want bit-identical %v", i, got.IPC[i], want.IPC[i])
		}
	}
}

// entryFile locates the single entry file of a one-entry store.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one entry file, got %v (err %v)", matches, err)
	}
	return matches[0]
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"garbage":   func([]byte) []byte { return []byte("not json at all {") },
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"empty":     func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			sp := mustSpec(t, testConfig(t))
			if err := st.Put(sp, testResult()); err != nil {
				t.Fatal(err)
			}
			path := entryFile(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Get(sp); ok {
				t.Fatal("corrupt entry must be a miss, not a hit")
			}
		})
	}
}

func TestVersionSkewIsAMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := mustSpec(t, testConfig(t))
	if err := st.Put(sp, testResult()); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	rec["format"] = FormatVersion + 1
	skewed, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(sp); ok {
		t.Fatal("a future-format entry must be a miss, not a hit or an error")
	}
}

// TestMismatchedSpecIsAMiss plants a valid record under the wrong key (a
// mis-copied or colliding entry) and expects a miss.
func TestMismatchedSpecIsAMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spA := mustSpec(t, testConfig(t))
	cfgB := testConfig(t)
	cfgB.Seed = 1234
	spB := mustSpec(t, cfgB)
	if err := st.Put(spB, testResult()); err != nil {
		t.Fatal(err)
	}
	// Rename B's entry file to A's address.
	if err := os.MkdirAll(filepath.Dir(st.path(spA.Key())), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(entryFile(t, dir), st.path(spA.Key())); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(spA); ok {
		t.Fatal("an entry recording a different spec must be a miss")
	}
}

func TestStatsAndGC(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	spA := mustSpec(t, cfg)
	cfg.Seed = 2
	spB := mustSpec(t, cfg)
	if err := st.Put(spA, testResult()); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(spB, testResult()); err != nil {
		t.Fatal(err)
	}
	// Plant one corrupt file inside the layout.
	bad := filepath.Join(dir, "zz")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "junk.json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := st.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Entries != 2 || s.Invalid != 1 || s.Bytes <= 0 || s.InvalidBytes != 4 {
		t.Fatalf("stats = %+v", s)
	}

	removed, freed, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != 4 {
		t.Fatalf("gc removed %d files / %d bytes, want 1 / 4", removed, freed)
	}
	if _, ok := st.Get(spA); !ok {
		t.Fatal("gc must keep valid entries")
	}
	if _, ok := st.Get(spB); !ok {
		t.Fatal("gc must keep valid entries")
	}

	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Key > entries[1].Key {
		t.Fatalf("Entries must list both records key-sorted, got %d", len(entries))
	}
}

// TestGCSparesFreshTempFiles locks the concurrent-writer contract: a
// dot-prefixed temp file younger than tempTTL is an in-flight Put and
// must survive stats and gc untouched, while an orphan past the TTL is
// reclaimable garbage.
func TestGCSparesFreshTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(sub, ".abcdef01.tmp123")
	if err := os.WriteFile(fresh, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(sub, ".deadbeef.tmp456")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempTTL)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}

	s, err := st.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Invalid != 1 {
		t.Fatalf("stats must count only the orphaned temp file, got %+v", s)
	}
	removed, _, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("gc removed %d files, want only the orphan", removed)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("gc must not touch a fresh in-flight temp file")
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("gc must reclaim an orphaned temp file past the TTL")
	}
}

// TestGCSweepsOrphanedTempFiles locks the crash-recovery contract: a
// dot-prefixed temp file whose writer died (mtime past tempTTL) is
// removed by GC, and a shard directory left empty by the sweep goes
// with it, while shards holding valid entries are untouched.
func TestGCSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(mustSpec(t, testConfig(t)), testResult()); err != nil {
		t.Fatal(err)
	}
	deadShard := filepath.Join(dir, "cd")
	if err := os.MkdirAll(deadShard, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(deadShard, ".cdcdcdcd.tmp789")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempTTL)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}

	removed, freed, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != int64(len("partial")) {
		t.Fatalf("gc removed %d files / %d bytes, want the one orphan", removed, freed)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("gc must reclaim the orphaned temp file")
	}
	if _, err := os.Stat(deadShard); !os.IsNotExist(err) {
		t.Fatal("gc must sweep the shard directory it emptied")
	}
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("gc must keep the valid entry, have %d", len(entries))
	}
}

// TestPutSurvivesGCDirectorySweep reproduces the GC/writer race
// deterministically for every record kind: the afterMkdir hook removes
// the freshly created — still empty — shard directory between the
// write's MkdirAll and its CreateTemp, exactly what a concurrent GC's
// empty-directory sweep does, once or several times in a row (a GC
// looping back to back). The retried write must land the entry anyway.
// On the pre-retry writer this fails with a "no such file or directory"
// write error, and on a single-retry writer it fails for three sweeps.
func TestPutSurvivesGCDirectorySweep(t *testing.T) {
	sp := mustSpec(t, testConfig(t))
	atk := testAttackSpec()
	kinds := []struct {
		name   string
		put    func(*Store) error
		get    func(*Store) bool
		writes func(Counters) int64
	}{
		{
			name:   "result",
			put:    func(st *Store) error { return st.Put(sp, testResult()) },
			get:    func(st *Store) bool { _, ok := st.Get(sp); return ok },
			writes: func(c Counters) int64 { return c.Writes },
		},
		{
			name:   "checkpoint",
			put:    func(st *Store) error { return st.PutCheckpoint(sp, []byte("IMPCKPT payload")) },
			get:    func(st *Store) bool { _, ok := st.GetCheckpoint(sp); return ok },
			writes: func(c Counters) int64 { return c.CheckpointWrites },
		},
		{
			name:   "attack",
			put:    func(st *Store) error { return st.PutAttack(atk, testAttackResult()) },
			get:    func(st *Store) bool { _, ok := st.GetAttack(atk); return ok },
			writes: func(c Counters) int64 { return c.AttackWrites },
		},
	}
	for _, kind := range kinds {
		for _, sweeps := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%d-sweeps", kind.name, sweeps), func(t *testing.T) {
				st, err := Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				swept := 0
				st.afterMkdir = func(dir string) {
					if swept == sweeps {
						return
					}
					swept++
					if err := os.Remove(dir); err != nil {
						t.Errorf("sweeping the empty shard directory: %v", err)
					}
				}
				if err := kind.put(st); err != nil {
					t.Fatalf("put against %d concurrent directory sweeps = %v, want success after retrying", sweeps, err)
				}
				if swept != sweeps {
					t.Fatalf("sweep hook fired %d times, want %d simulated GCs", swept, sweeps)
				}
				if !kind.get(st) {
					t.Fatal("entry unreadable after the retried write")
				}
				if c := st.Counters(); kind.writes(c) != 1 || c.WriteErrors != 0 {
					t.Fatalf("counters after retried write = %+v, want one clean %s write", c, kind.name)
				}
			})
		}
	}
}

// TestGCAgainstParallelPuts stress-tests the writer/GC interleaving —
// run under -race in CI. Writers install distinct entries while a GC
// loop sweeps continuously; every Put must succeed and every entry
// must be readable afterwards.
func TestGCAgainstParallelPuts(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perWriter = 8
	specs := make([]Spec, writers*perWriter)
	for i := range specs {
		cfg := testConfig(t)
		cfg.Seed = uint64(i + 1)
		specs[i] = mustSpec(t, cfg)
	}
	res := testResult()

	stop := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := st.GC(); err != nil {
				t.Errorf("concurrent GC: %v", err)
				return
			}
		}
	}()

	var putWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		putWG.Add(1)
		go func(w int) {
			defer putWG.Done()
			for i := 0; i < perWriter; i++ {
				sp := specs[w*perWriter+i]
				if err := st.Put(sp, res); err != nil {
					t.Errorf("writer %d: Put: %v", w, err)
				}
			}
		}(w)
	}
	putWG.Wait()
	close(stop)
	gcWG.Wait()

	for i, sp := range specs {
		if _, ok := st.Get(sp); !ok {
			t.Errorf("entry %d missing after concurrent GC", i)
		}
	}
	if c := st.Counters(); c.WriteErrors != 0 {
		t.Fatalf("counters = %+v, want zero write errors", c)
	}
}

// TestAttackRecordRoundTrip covers the attack side of the store: a
// result round-trips bit-identically and is counted as an attack hit,
// and a structurally valid record whose payload does not decode is an
// attack miss, not a hit with a zero result.
func TestAttackRecordRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	atk := testAttackSpec()
	if _, ok := st.GetAttack(atk); ok {
		t.Fatal("empty store must miss attacks")
	}
	if err := st.PutAttack(atk, testAttackResult()); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.GetAttack(atk); !ok || got != testAttackResult() {
		t.Fatalf("attack round trip: ok=%v got %+v", ok, got)
	}
	if _, ok := st.Get(mustSpec(t, testConfig(t))); ok {
		t.Fatal("an attack record must not answer result Gets")
	}

	if err := st.put(record{Kind: KindAttack, Key: atk.Key(), Attack: &atk, Payload: []byte("not json")}, nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.GetAttack(atk); ok || got != (security.Result{}) {
		t.Fatalf("undecodable payload served as a hit: ok=%v got %+v", ok, got)
	}
	c := st.Counters()
	if c.AttackHits != 1 || c.AttackMisses != 2 || c.AttackWrites != 2 || c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("counters = %+v, want 1 attack hit, 2 attack misses, 2 attack writes, 1 result miss", c)
	}
}
