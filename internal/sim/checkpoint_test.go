package sim

import (
	"compress/flate"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"impress/internal/core"
	"impress/internal/errs"
	"impress/internal/trace"
)

// checkpointCases covers every workload family the checkpoint must carry
// across the warmup boundary: SPEC singletons (pointer-chasing and
// streaming), per-core mix co-runs, and adversarial attack patterns —
// with randomized (PARA, MINT) and deterministic trackers, since the RNG
// chain is part of the restored state.
var checkpointCases = []struct {
	workload string
	kind     core.Kind
	tracker  TrackerKind
	trh      float64
}{
	{"gcc", core.ImpressP, TrackerGraphene, 4000},
	{"mcf", core.ExPress, TrackerPARA, 4000},
	{"copy", core.ImpressN, TrackerMINT, 1600},
	{"mix:mcf,gcc,copy,attack:hammer", core.ImpressP, TrackerGraphene, 4000},
	{"attack:hammer", core.ImpressP, TrackerMithril, 4000},
}

func checkpointConfig(t *testing.T, workload string, kind core.Kind, tracker TrackerKind, trh float64) Config {
	t.Helper()
	w, err := trace.WorkloadByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(w, core.NewDesign(kind), tracker)
	cfg.DesignTRH = trh
	cfg.WarmupInstructions = 10_000
	cfg.RunInstructions = 30_000
	return cfg
}

// capture runs cfg straight through, returning its result and the
// post-warmup checkpoint the run published.
func capture(t *testing.T, cfg Config) (Result, []byte) {
	t.Helper()
	var data []byte
	cfg.OnCheckpoint = func(b []byte) { data = b }
	res := mustRun(t, cfg)
	if data == nil {
		t.Fatalf("%s/%s: no checkpoint was captured", cfg.Workload.Name, cfg.Tracker)
	}
	return res, data
}

// TestCheckpointRestoreBitIdentical is the checkpoint contract: in every
// exact clock mode, a run restored from a post-warmup checkpoint
// produces a Result byte-identical to the straight-through run — and the
// capturing run itself is unperturbed by capturing. One checkpoint
// (captured under the default clock) serves all exact modes, because the
// modes are bit-identical at the warmup boundary; the lockstep
// cross-check restores it into both of its simulators.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	for _, tc := range checkpointCases {
		cfg := checkpointConfig(t, tc.workload, tc.kind, tc.tracker, tc.trh)
		straight := mustRun(t, cfg)
		captured, data := capture(t, cfg)
		if !reflect.DeepEqual(straight, captured) {
			t.Errorf("%s/%v/%s: capturing a checkpoint perturbed the run:\nplain    %+v\ncaptured %+v",
				tc.workload, tc.kind, tc.tracker, straight, captured)
			continue
		}
		for _, m := range exactRuns {
			mcfg := cfg
			mcfg.Clock = m.clock
			mcfg.RestoreCheckpoint = data
			if restored := m.run(t, mcfg); !reflect.DeepEqual(straight, restored) {
				t.Errorf("%s/%v/%s clock=%s: restored run diverged from straight-through:\nstraight %+v\nrestored %+v",
					tc.workload, tc.kind, tc.tracker, m.name, straight, restored)
			}
		}
	}
}

// TestCheckpointRoundTrip pins the codec: Encode then DecodeCheckpoint
// reproduces the checkpoint exactly, and the decoded copy passes the
// compatibility check against its own config.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := checkpointConfig(t, "gcc", core.ImpressP, TrackerGraphene, 4000)
	_, data := capture(t, cfg)
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.CompatibleWith(cfg); err != nil {
		t.Fatalf("decoded checkpoint rejects its own config: %v", err)
	}
	re, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := DecodeCheckpoint(re)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, ck2) {
		t.Fatal("checkpoint does not survive an encode/decode round trip")
	}
}

// TestCheckpointDefaultCompressionDecodes pins that checkpoints written
// before Encode moved to flate.BestSpeed, at flate.DefaultCompression,
// still decode to the same Checkpoint: stores keep serving them.
func TestCheckpointDefaultCompressionDecodes(t *testing.T) {
	cfg := checkpointConfig(t, "copy", core.ImpressP, TrackerGraphene, 4000)
	straight, data := capture(t, cfg)
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	old, err := ck.encode(flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if string(old) == string(data) {
		t.Fatal("DefaultCompression and Encode wrote the same bytes; the test covers no older encoding")
	}
	got, err := DecodeCheckpoint(old)
	if err != nil {
		t.Fatalf("a DefaultCompression checkpoint no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatal("a DefaultCompression checkpoint decodes to a different Checkpoint")
	}
	cfg.RestoreCheckpoint = old
	if restored := mustRun(t, cfg); !reflect.DeepEqual(restored, straight) {
		t.Fatal("a run restored from a DefaultCompression checkpoint diverged from the straight-through run")
	}
}

// TestCheckpointRestoreRejectsMismatch makes sure a checkpoint from a
// different spec prefix cannot silently seed a run: every mismatching
// knob that shapes warmup — seed, threshold, tracker, warmup length —
// fails RunContext with a typed ErrBadSpec error instead of restoring.
func TestCheckpointRestoreRejectsMismatch(t *testing.T) {
	base := checkpointConfig(t, "gcc", core.ImpressP, TrackerGraphene, 4000)
	_, data := capture(t, base)
	mutations := map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed++ },
		"trh":     func(c *Config) { c.DesignTRH = 2000 },
		"tracker": func(c *Config) { c.Tracker = TrackerPARA },
		"warmup":  func(c *Config) { c.WarmupInstructions *= 2 },
		"design":  func(c *Config) { c.Design = core.NewDesign(core.ImpressN) },
		"corrupt": func(c *Config) { c.RestoreCheckpoint = []byte("IMPCKPT\x01 not flate") },
	}
	for name, mutate := range mutations {
		cfg := base
		cfg.RestoreCheckpoint = data
		mutate(&cfg)
		if _, err := RunContext(context.Background(), cfg); !errors.Is(err, errs.ErrBadSpec) {
			t.Errorf("%s mismatch: want an error wrapping ErrBadSpec, got %v", name, err)
		}
	}
}

// TestCheckpointClockModeSharing pins the one deliberate compatibility
// exception: the clock mode is a derivative of the run request, not of
// the warmed state (the exact modes are bit-identical at the boundary),
// so a checkpoint captured under one exact mode restores under another.
func TestCheckpointClockModeSharing(t *testing.T) {
	cfg := checkpointConfig(t, "gcc", core.NoRP, TrackerNone, 4000)
	cfg.Clock = ClockCycleAccurate
	_, data := capture(t, cfg)
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clock = ClockEventDriven
	if err := ck.CompatibleWith(cfg); err != nil {
		t.Fatalf("cycle-accurate checkpoint rejected by event-driven config: %v", err)
	}
}

// FuzzCheckpointDecode drives DecodeCheckpoint with corrupted inputs: it
// must never panic, and every rejection must be a typed error wrapping
// errs.ErrBadSpec (the contract untrusted store payloads rely on).
func FuzzCheckpointDecode(f *testing.F) {
	w, err := trace.WorkloadByName("gcc")
	if err != nil {
		f.Fatal(err)
	}
	cfg := DefaultConfig(w, core.NewDesign(core.ImpressP), TrackerGraphene)
	cfg.WarmupInstructions = 2_000
	cfg.RunInstructions = 2_000
	var valid []byte
	cfg.OnCheckpoint = func(b []byte) { valid = b }
	mustRun(f, cfg)
	if valid == nil {
		f.Fatal("no checkpoint was captured for the seed corpus")
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("IMPCKPT"))
	f.Add([]byte("IMPCKPT\x01"))
	f.Add([]byte("IMPCKPT\x02rest"))
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte{}, valid...), 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, errs.ErrBadSpec) {
				t.Fatalf("decode error does not wrap ErrBadSpec: %v", err)
			}
			return
		}
		// A structurally valid checkpoint must also re-encode cleanly.
		if _, err := ck.Encode(); err != nil {
			t.Fatalf("decoded checkpoint fails to re-encode: %v", err)
		}
	})
}

// TestWarmupHonoursCycleBound pins the warmup deadlock safety net: a
// warmup that cannot retire its instructions within MaxCycles panics
// with the measured run's "exceeded cycle bound" message before any
// checkpoint is offered, so a core stalled by a clocking bug fails
// loudly instead of hanging warmup.
func TestWarmupHonoursCycleBound(t *testing.T) {
	cfg := checkpointConfig(t, "mcf", core.ExPress, TrackerPARA, 4000)
	cfg.MaxCycles = 100
	fired := false
	cfg.OnCheckpoint = func([]byte) { fired = true }
	defer func() {
		p := recover()
		if msg, ok := p.(string); !ok || !strings.Contains(msg, "exceeded cycle bound") {
			t.Fatalf("want an \"exceeded cycle bound\" panic, got %v", p)
		}
		if fired {
			t.Fatal("OnCheckpoint fired: the warmup ran past MaxCycles")
		}
	}()
	_, err := RunContext(context.Background(), cfg)
	t.Fatalf("a run past MaxCycles returned (err %v) instead of panicking", err)
}
