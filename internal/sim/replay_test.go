package sim

import (
	"path/filepath"
	"reflect"
	"testing"

	"impress/internal/core"
	"impress/internal/trace"
)

// replayScale mirrors the experiment harness's QuickScale instruction
// budget (internal/experiments.QuickScale), the scale the replay
// acceptance criterion is stated at.
const (
	replayWarmup = 20_000
	replayRun    = 100_000
)

// replayRecordBudget is the per-core request budget recordings use: the
// most intensive workload (STREAM at 160 accesses/KI over 120k
// instructions) consumes ~19k requests per core, so 48k leaves a 2.5x
// margin for the post-budget overrun of rate mode.
const replayRecordBudget = 48_000

// replayWorkloads covers one workload per class: SPEC, STREAM, an
// arbitrary per-core mix with an attack-pattern aggressor (the co-run
// scenario the trace subsystem exists for), and a pure attack pattern.
var replayWorkloads = []string{
	"mcf",
	"copy",
	"mix:mcf,copy,attack:hammer",
	"attack:rowpress",
}

func replayConfig(w trace.Workload, clock ClockMode) Config {
	cfg := DefaultConfig(w, core.NewDesign(core.ImpressP), TrackerGraphene)
	cfg.WarmupInstructions = replayWarmup
	cfg.RunInstructions = replayRun
	cfg.Clock = clock
	return cfg
}

// TestRecordReplayBitIdentical is the tentpole's correctness property: a
// recorded-then-replayed run is bit-identical (same Result, same Stats)
// to the live-generator run, in both the event-driven and the
// cycle-accurate clock — which also makes replay a differential-testing
// axis for the event clock, so the live event-driven and cycle-accurate
// results are cross-checked here too.
func TestRecordReplayBitIdentical(t *testing.T) {
	for _, name := range replayWorkloads {
		w, err := trace.WorkloadByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec := trace.Record(w, 8, replayRecordBudget, 1)
		replayW, err := rec.Workload()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var results [2]Result
		for i, clock := range []ClockMode{ClockEventDriven, ClockCycleAccurate} {
			live := mustRun(t, replayConfig(w, clock))
			replayed := mustRun(t, replayConfig(replayW, clock))
			if !reflect.DeepEqual(live, replayed) {
				t.Fatalf("%s (clock %d): replay diverged from live run:\nlive   %+v\nreplay %+v",
					name, clock, live, replayed)
			}
			results[i] = live
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("%s: event-driven result diverged from cycle-accurate:\nEV %+v\nCA %+v",
				name, results[0], results[1])
		}
	}
}

// TestTraceFileConfig drives the same property through the Config.TraceFile
// path: a round trip through the on-disk binary format changes nothing.
func TestTraceFileConfig(t *testing.T) {
	w, err := trace.WorkloadByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.Record(w, 8, replayRecordBudget, 1)
	path := filepath.Join(t.TempDir(), "mcf.trace")
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	live := mustRun(t, replayConfig(w, ClockEventDriven))
	cfg := replayConfig(trace.Workload{}, ClockEventDriven)
	cfg.TraceFile = path
	cfg.Cores = 0 // the trace's recorded core count takes over
	replayed := mustRun(t, cfg)
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("TraceFile replay diverged from live run:\nlive   %+v\nreplay %+v", live, replayed)
	}
}

// TestTraceFileUsesRecordedSeed pins the seed half of the replay
// contract: the trace header's recorded seed must drive the replayed
// simulation's RNG chain (randomized trackers like PARA draw from it),
// even when the caller's Config carries a different seed.
func TestTraceFileUsesRecordedSeed(t *testing.T) {
	w, err := trace.WorkloadByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 2
	rec := trace.Record(w, 8, replayRecordBudget, seed)
	path := filepath.Join(t.TempDir(), "mcf-seed2.trace")
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	liveCfg := replayConfig(w, ClockEventDriven)
	liveCfg.Tracker = TrackerPARA
	liveCfg.Seed = seed
	live := mustRun(t, liveCfg)

	replayCfg := replayConfig(trace.Workload{}, ClockEventDriven)
	replayCfg.Tracker = TrackerPARA
	replayCfg.TraceFile = path // leaves replayCfg.Seed at the default 1
	replayed := mustRun(t, replayCfg)
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("replay ignored the recorded seed:\nlive   %+v\nreplay %+v", live, replayed)
	}
}

// TestAttackTrafficReachesDRAM verifies the uncached aggressor path end
// to end: an all-attacker run must bypass the LLC entirely (its accesses
// are neither hits nor misses) while forcing demand activations that are
// overwhelmingly row conflicts — the signature of a many-sided hammer
// pattern defeating the open-page policy.
func TestAttackTrafficReachesDRAM(t *testing.T) {
	w, err := trace.WorkloadByName("attack:manysided")
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, replayConfig(w, ClockEventDriven))
	if res.Mem.DemandACTs < 3000 {
		t.Errorf("aggressor generated only %d demand ACTs; its traffic is not reaching DRAM", res.Mem.DemandACTs)
	}
	if 10*res.Mem.RowConflicts < 9*res.Mem.DemandACTs {
		t.Errorf("only %d of %d ACTs were row conflicts; pattern is not hammering",
			res.Mem.RowConflicts, res.Mem.DemandACTs)
	}
	if res.LLCHitRate != 0 {
		t.Errorf("uncached attack traffic touched the LLC (hit rate %v)", res.LLCHitRate)
	}
}

// TestMixedAttackScenarioRuns pins the acceptance criterion that a
// scenario inexpressible before this subsystem — two distinct workload
// classes plus an attack-pattern aggressor core in one run — executes,
// classifies correctly, and that the aggressor measurably degrades its
// victims relative to the same co-run with a benign core in its slot.
func TestMixedAttackScenarioRuns(t *testing.T) {
	attacked, err := trace.WorkloadByName("mix:mcf,mcf,mcf,gcc,gcc,gcc,copy,attack:manysided")
	if err != nil {
		t.Fatal(err)
	}
	benign, err := trace.WorkloadByName("mix:mcf,mcf,mcf,gcc,gcc,gcc,copy,xalancbmk")
	if err != nil {
		t.Fatal(err)
	}
	if attacked.Stream || benign.Stream {
		t.Fatal("mixes containing SPEC sources must classify as SPEC")
	}
	resA := mustRun(t, replayConfig(attacked, ClockEventDriven))
	resB := mustRun(t, replayConfig(benign, ClockEventDriven))
	if len(resA.IPC) != 8 {
		t.Fatalf("mixed run produced %d cores, want 8", len(resA.IPC))
	}
	victims := func(r Result) float64 {
		sum := 0.0
		for _, ipc := range r.IPC[:7] {
			sum += ipc
		}
		return sum
	}
	if va, vb := victims(resA), victims(resB); va >= vb {
		t.Errorf("victim cores not degraded by the aggressor: IPC sum %v (attacked) vs %v (benign)", va, vb)
	}
}

// TestTraceFileAllClockModes pins the streaming half of the replay
// contract in every clock mode: a file recorded with the streaming
// writer and replayed through Config.TraceFile — header + frame index
// at open, frames pulled from disk as the run consumes them — is
// bit-identical to the live-generator run and to the same file replayed
// from memory, under the event-driven and cycle-accurate clocks alike,
// and all three runs pass the lockstep cross-check.
func TestTraceFileAllClockModes(t *testing.T) {
	w, err := trace.WorkloadByName("mix:mcf,copy,attack:hammer")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mix.trace")
	if err := trace.RecordFile(t.Context(), w, 4, replayRecordBudget, 1, path); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	materialized, err := tr.Workload()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range exactRuns {
		liveCfg := replayConfig(w, m.clock)
		liveCfg.Cores = 4
		memCfg := liveCfg
		memCfg.Workload = materialized
		fileCfg := replayConfig(trace.Workload{}, m.clock)
		fileCfg.TraceFile = path
		fileCfg.Cores = 0 // the trace's recorded core count takes over
		live := m.run(t, liveCfg)
		if streamed := m.run(t, fileCfg); !reflect.DeepEqual(live, streamed) {
			t.Fatalf("clock %s: streaming TraceFile replay diverged from live run:\nlive   %+v\nreplay %+v",
				m.name, live, streamed)
		}
		if inMemory := m.run(t, memCfg); !reflect.DeepEqual(live, inMemory) {
			t.Fatalf("clock %s: materialized replay diverged from live run:\nlive   %+v\nreplay %+v",
				m.name, live, inMemory)
		}
	}
}
