package labd

import (
	"context"
	"testing"
	"time"
)

// TestFinishedJobReleasesRunner pins that the job table keeps no
// runner or plan for a terminal job, done or cancelled, while its
// status snapshot still reports the specs it was submitted with.
func TestFinishedJobReleasesRunner(t *testing.T) {
	srv, c := newTestDaemon(t, Config{CacheDir: t.TempDir(), Workers: 2})
	ctx := context.Background()
	released := func(id string, wantSpecs int) {
		t.Helper()
		j := srv.jobByID(id)
		j.mu.Lock()
		plan := j.plan
		j.mu.Unlock()
		if plan != nil {
			t.Errorf("%s finished holding its plan and so its runner", id)
		}
		if snap := j.snapshot(); snap.Specs != wantSpecs {
			t.Errorf("%s snapshot reports %d specs, want %d", id, snap.Specs, wantSpecs)
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
	if cold.Specs == 0 {
		t.Fatal("fig3 job submitted with no specs")
	}
	shutCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	if st := srv.jobByID(cold.ID).snapshot().State; !st.Terminal() {
		t.Fatalf("fig3 job is %s after shutdown, want terminal", st)
	}
	released(cold.ID, cold.Specs)
}
