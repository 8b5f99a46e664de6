package labd

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"impress/internal/attack"
	"impress/internal/experiments"
	"impress/internal/resultstore"
)

// TestAttacksShareTheWorkersBound pins that a /v1/attacks batch runs
// under the daemon's Workers bound: while a one-worker daemon's only
// slot is taken, as a running sweep's spec would take it, the batch
// evaluates nothing, and it completes once the slot frees.
func TestAttacksShareTheWorkersBound(t *testing.T) {
	srv, c := newTestDaemon(t, Config{Workers: 1})
	ctx := context.Background()
	srv.slots <- struct{}{}
	specs := []resultstore.AttackSpec{experiments.ZooAttackSpec("graphene", attack.PaperPatternNames()[0])}
	done := make(chan error, 1)
	go func() {
		_, err := c.EvaluateAttacks(ctx, specs)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("the batch finished (err %v) while the daemon's only slot was taken", err)
	case <-time.After(time.Second):
	}
	<-srv.slots
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestOneWorkerDaemonOutlivesVanishingStore runs a selection that
// mixes simulations (fig3), attack evaluations (attackzoo) and
// ablation-rfm's harness pool on a one-worker daemon, so every spec of
// all three waits on the same single slot, and removes the store
// directory after the first simulation finishes. The job must still
// end done with golden tables, since a store write recreates the
// directories it needs. A resubmit then simulates at most the specs
// that finished before the removal: the only results it took.
func TestOneWorkerDaemonOutlivesVanishingStore(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon sweep simulation skipped in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "store")
	srv, c := newTestDaemon(t, Config{CacheDir: dir, Workers: 1})
	ctx := context.Background()
	req := SweepRequest{Only: []string{"fig3", "ablation-rfm", "attackzoo"}}

	// run submits req, watches the job to done, checks its tables
	// against golden and returns its final snapshot. onEvent, when
	// non-nil, sees the job's events as they arrive.
	run := func(onEvent func(id string, e Event)) Job {
		t.Helper()
		job, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Watch(ctx, job.ID, 0, func(e Event) {
			if onEvent != nil {
				onEvent(job.ID, e)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("%s finished %s (%s), want done", job.ID, final.State, final.Error)
		}
		tr, err := c.Tables(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Tables) != len(req.Only) {
			t.Fatalf("%s rendered %d tables, want %d", job.ID, len(tr.Tables), len(req.Only))
		}
		for _, tab := range tr.Tables {
			if tab.Text != goldenTable(t, tab.ID) {
				t.Errorf("%s: %s differs from its golden rendering", job.ID, tab.ID)
			}
		}
		return final
	}

	var lost int64 = -1
	cold := run(func(id string, e Event) {
		if e.Kind != "finished" || lost >= 0 {
			return
		}
		// The finished spec's store write can race the removal and
		// leave the directory non-empty; remove until it is gone.
		err := os.RemoveAll(dir)
		for try := 0; err != nil && try < 10; try++ {
			err = os.RemoveAll(dir)
		}
		if err != nil {
			t.Error(err)
		}
		// Every spec whose result the removal can have taken had
		// finished by the time it returned.
		lost = srv.jobByID(id).snapshot().Simulated
	})
	if lost < 1 || cold.Simulated != int64(cold.Specs) {
		t.Fatalf("cold job simulated %d of %d specs with %d finished at the removal", cold.Simulated, cold.Specs, lost)
	}
	warm := run(nil)
	if warm.Simulated > lost {
		t.Fatalf("resubmit simulated %d specs; the removal can have taken only %d", warm.Simulated, lost)
	}
	t.Logf("store removed after %d finished specs; the resubmit simulated %d", lost, warm.Simulated)
}
