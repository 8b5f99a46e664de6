package impress

import (
	"context"
	"reflect"
	"testing"

	"impress/internal/experiments"
	"impress/internal/resultstore"
)

// TestLabProgressStream pins the full progress events of each cached-run
// path — kind, label, key, cycles and warmup restoration — not just
// their kinds: a store-less Lab.Run on a live config and on a trace
// replay, a store-backed cold and warm run, a second spec restoring the
// first one's warmup checkpoint, and a cold then warm Runner.Attack.
func TestLabProgressStream(t *testing.T) {
	ctx := context.Background()
	w, err := WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig(w, NewDesign(ImpressP), TrackerGraphene)
	cfg.WarmupInstructions, cfg.RunInstructions = 2_000, 5_000
	longer := cfg
	longer.RunInstructions = 6_000

	tracePath := t.TempDir() + "/gcc.trace"
	lab, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.RecordFile(ctx, w, 2, 2_000, 1, tracePath); err != nil {
		t.Fatal(err)
	}
	replay := DefaultSimConfig(Workload{}, NewDesign(ImpressP), TrackerGraphene)
	replay.WarmupInstructions, replay.RunInstructions = 500, 1_000

	key := func(c SimConfig) string {
		sp, err := ResultSpecFor(c)
		if err != nil {
			t.Fatal(err)
		}
		return string(sp.Key())
	}
	atk := experiments.ZooAttackSpec("mint", "hammer")
	const label = "gcc/impress-p/graphene"
	const atkLabel = "hammer vs mint"

	cases := []struct {
		name  string
		store bool
		run   func(l *Lab) error
		want  []Progress
	}{
		{
			name: "store-less live run",
			run:  func(l *Lab) error { _, err := l.Run(ctx, cfg); return err },
			want: []Progress{
				{Kind: ProgressSpecStarted, Spec: label},
				{Kind: ProgressSpecFinished, Spec: label, Cycles: 1},
			},
		},
		{
			name: "store-less trace replay",
			run:  func(l *Lab) error { _, err := l.Replay(ctx, tracePath, replay); return err },
			want: []Progress{
				{Kind: ProgressSpecStarted, Spec: "trace:" + tracePath + "/impress-p/graphene"},
				{Kind: ProgressSpecFinished, Spec: "trace:" + tracePath + "/impress-p/graphene", Cycles: 1},
			},
		},
		{
			name:  "store-backed cold, warm, then a shared warmup prefix",
			store: true,
			run: func(l *Lab) error {
				for _, c := range []SimConfig{cfg, cfg, longer} {
					if _, err := l.Run(ctx, c); err != nil {
						return err
					}
				}
				return nil
			},
			want: []Progress{
				{Kind: ProgressSpecStarted, Spec: label, Key: key(cfg)},
				{Kind: ProgressSpecFinished, Spec: label, Key: key(cfg), Cycles: 1},
				{Kind: ProgressSpecStarted, Spec: label, Key: key(cfg)},
				{Kind: ProgressSpecCacheHit, Spec: label, Key: key(cfg)},
				{Kind: ProgressSpecStarted, Spec: label, Key: key(longer)},
				{Kind: ProgressSpecFinished, Spec: label, Key: key(longer), Cycles: 1, WarmupRestored: true},
			},
		},
		{
			name:  "attack cold then warm",
			store: true,
			run: func(l *Lab) error {
				// Two runners: the second misses the first one's memo
				// and is served by the shared store.
				for range 2 {
					if _, err := l.newRunner(QuickScale()).EvaluateAttacks(ctx, []resultstore.AttackSpec{atk}); err != nil {
						return err
					}
				}
				return nil
			},
			want: []Progress{
				{Kind: ProgressAttackStarted, Spec: atkLabel, Key: string(atk.Key())},
				{Kind: ProgressAttackFinished, Spec: atkLabel, Key: string(atk.Key())},
				{Kind: ProgressAttackStarted, Spec: atkLabel, Key: string(atk.Key())},
				{Kind: ProgressAttackCacheHit, Spec: atkLabel, Key: string(atk.Key())},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []Progress
			opts := []LabOption{WithParallelism(1), WithProgress(func(p Progress) {
				// Cycle counts are the simulator's business; the stream
				// only promises a positive one on every finished event.
				if p.Cycles > 0 {
					p.Cycles = 1
				}
				got = append(got, p)
			})}
			if tc.store {
				opts = append(opts, WithStore(t.TempDir()))
			}
			l, err := NewLab(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(l); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("progress stream:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}
