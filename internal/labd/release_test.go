package labd

import (
	"context"
	"testing"
	"time"
)

// TestFinishedJobReleasesRunner pins that the job table keeps no
// runner for a terminal job, done or cancelled, while its status
// snapshot still reports the shard count it was submitted with.
func TestFinishedJobReleasesRunner(t *testing.T) {
	srv, c := newTestDaemon(t, Config{CacheDir: t.TempDir(), Workers: 2, ShardsPerJob: 4})
	ctx := context.Background()
	released := func(id string, wantShards int) {
		t.Helper()
		j := srv.jobByID(id)
		j.mu.Lock()
		runner, shards := j.runner, j.shards
		j.mu.Unlock()
		if runner != nil || shards != nil {
			t.Errorf("%s finished holding its runner (%v) or shards (%d)", id, runner != nil, len(shards))
		}
		if snap := j.snapshot(); snap.Shards != wantShards {
			t.Errorf("%s snapshot reports %d shards, want %d", id, snap.Shards, wantShards)
		}
	}

	done, err := c.Submit(ctx, SweepRequest{Only: []string{"table1"}})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Watch(ctx, done.ID, 0, nil); err != nil || final.State != StateDone {
		t.Fatalf("analytical job = %+v, %v; want done", final, err)
	}
	released(done.ID, 0)

	// A simulation-backed job, cancelled by shutdown before it can
	// finish its cold sweep.
	cold, err := c.Submit(ctx, SweepRequest{Only: []string{"fig3"}})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Shards != 4 {
		t.Fatalf("fig3 job submitted with %d shards, want 4", cold.Shards)
	}
	shutCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	if st := srv.jobByID(cold.ID).snapshot().State; !st.Terminal() {
		t.Fatalf("fig3 job is %s after shutdown, want terminal", st)
	}
	released(cold.ID, cold.Shards)
}
