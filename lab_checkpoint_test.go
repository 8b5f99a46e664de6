package impress

import (
	"context"
	"reflect"
	"testing"
)

// TestLabRunPublishesCheckpointSweepRestoresIt pins who writes warmup
// checkpoints and who reads them: a cold store-backed Lab.Run publishes
// one, and a table sweep over the same store — which publishes none of
// its own — restores it for the spec sharing that warmup prefix, with
// the straight-through result.
func TestLabRunPublishesCheckpointSweepRestoresIt(t *testing.T) {
	ctx := context.Background()
	scale := ExperimentScale{Name: "tiny", Warmup: 5_000, Run: 25_000, Workloads: []string{"gcc"}}
	w, err := WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	// fig3's unprotected baseline at the sweep's scale, and a one-off
	// rerun of it under another run budget.
	baseline := DefaultSimConfig(w, NewDesign(NoRP), TrackerNone)
	baseline.WarmupInstructions, baseline.RunInstructions = scale.Warmup, scale.Run
	oneOff := baseline
	oneOff.RunInstructions = 2 * scale.Run

	var events []Progress
	lab, err := NewLab(WithStore(t.TempDir()), WithParallelism(1),
		WithProgress(func(p Progress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Run(ctx, oneOff); err != nil {
		t.Fatal(err)
	}
	if c := lab.store.Counters(); c.CheckpointWrites != 1 {
		t.Fatalf("a cold Lab.Run must publish its warmup checkpoint: %+v", c)
	}

	events = nil
	if _, err := lab.Experiments(ctx, scale, ExperimentsOnly("fig3")); err != nil {
		t.Fatal(err)
	}
	if c := lab.store.Counters(); c.CheckpointWrites != 1 {
		t.Fatalf("the sweep published warmup checkpoints: %+v", c)
	}
	sp, err := ResultSpecFor(baseline)
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for _, p := range events {
		if p.Kind != ProgressSpecFinished {
			continue
		}
		if p.WarmupRestored != (p.Key == string(sp.Key())) {
			t.Fatalf("%s: WarmupRestored=%v; only the baseline shares the published warmup prefix", p.Spec, p.WarmupRestored)
		}
		if p.WarmupRestored {
			restored++
		}
	}
	if restored != 1 {
		t.Fatalf("the sweep restored %d warmups, want the baseline's 1", restored)
	}

	got, ok := lab.store.Get(sp)
	if !ok {
		t.Fatal("the sweep did not store the baseline's result")
	}
	direct, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	straight, err := direct.Run(ctx, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, straight) {
		t.Fatalf("restored sweep result differs from straight-through:\nrestored %+v\nstraight %+v", got, straight)
	}
}
