package labd

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"impress/internal/attack"
	"impress/internal/errs"
	"impress/internal/experiments"
	"impress/internal/resultstore"
	"impress/internal/synth"
)

// The labd client is a drop-in fitness function for the synthesis
// engine: a search runs against a remote daemon by swapping the local
// runner for a Client.
var _ synth.Evaluator = (*Client)(nil)

// newTestDaemon boots a Server over httptest and returns a Client
// pointed at it. Shutdown and listener teardown are registered as
// cleanups (shutdown first — cleanups run LIFO).
func newTestDaemon(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, NewClient(ts.URL)
}

// goldenTable loads the checked-in QuickScale rendering for one
// experiment — the fixtures the whole repo's byte-identity contract
// anchors on.
func goldenTable(t *testing.T, id string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "golden", id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestHubDropsForBlockedSubscriberWithoutBlocking pins the satellite
// contract: a subscriber that never drains its bounded buffer cannot
// slow the publisher — publish stays non-blocking — and the subscriber
// is told explicitly, via a lagged event, how much it missed.
func TestHubDropsForBlockedSubscriberWithoutBlocking(t *testing.T) {
	h := newHub(1 << 16)
	_, ch, cancel := h.subscribe(0, 2)
	defer cancel()

	const published = 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < published; i++ {
			h.publish(Event{Kind: "started", Spec: "w/d/t"})
		}
		h.close()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publishing to a blocked subscriber blocked the sweep side")
	}

	// Drain what the subscriber kept: the buffered prefix, then the
	// lagged marker accounting for everything else.
	var delivered, dropped int64
	var sawLagged bool
	for e := range ch {
		if e.Kind == KindLagged {
			sawLagged = true
			dropped += e.Dropped
			if e.Seq != -1 {
				t.Errorf("lagged marker carries log seq %d; it must be synthetic (-1)", e.Seq)
			}
			continue
		}
		delivered++
	}
	if !sawLagged {
		t.Fatal("blocked subscriber never saw an explicit lagged event")
	}
	if delivered+dropped != published {
		t.Fatalf("delivered %d + dropped %d != published %d", delivered, dropped, published)
	}
	// The full log is still replayable for a well-behaved subscriber.
	backlog, ch2, cancel2 := h.subscribe(0, 1)
	defer cancel2()
	if _, open := <-ch2; open {
		t.Fatal("post-close subscription channel must be closed")
	}
	if len(backlog) != published {
		t.Fatalf("replay backlog has %d events, want %d", len(backlog), published)
	}
}

// TestHubTruncatedHistoryFlagsLag pins the log cap: a subscriber
// asking for history the hub already discarded gets a lagged marker up
// front, never silently shortened replay.
func TestHubTruncatedHistoryFlagsLag(t *testing.T) {
	h := newHub(10)
	for i := 0; i < 25; i++ {
		h.publish(Event{Kind: "started"})
	}
	backlog, _, cancel := h.subscribe(0, 1)
	defer cancel()
	if len(backlog) != 11 {
		t.Fatalf("backlog has %d events, want lagged marker + 10 retained", len(backlog))
	}
	if backlog[0].Kind != KindLagged || backlog[0].Dropped != 15 {
		t.Fatalf("backlog[0] = %+v, want lagged marker with 15 dropped", backlog[0])
	}
	if backlog[1].Seq != 15 {
		t.Fatalf("first retained event has seq %d, want 15", backlog[1].Seq)
	}
}

// TestSubmitRejectsBadRequests pins the API boundary: every malformed
// submission is a typed 400 — reconstructed client-side as ErrBadSpec
// — and none of them may reach the queue, let alone kill the daemon.
func TestSubmitRejectsBadRequests(t *testing.T) {
	srv, c := newTestDaemon(t, Config{})
	ctx := context.Background()

	cases := []struct {
		name string
		req  SweepRequest
	}{
		{"unknown scale", SweepRequest{Scale: "huge"}},
		{"unknown experiment", SweepRequest{Only: []string{"fig99"}}},
		{"analytical conflict", SweepRequest{Only: []string{"fig3"}, Analytical: true}},
	}
	for _, tc := range cases {
		if _, err := c.Submit(ctx, tc.req); !errors.Is(err, errs.ErrBadSpec) {
			t.Errorf("%s: Submit error = %v, want errs.ErrBadSpec", tc.name, err)
		}
	}

	if _, err := c.Job(ctx, "job-999"); !errors.Is(err, errs.ErrBadSpec) {
		t.Errorf("unknown job error = %v, want errs.ErrBadSpec", err)
	}

	// Malformed JSON and unknown fields are 400s too, the removed
	// per-job shard count among them.
	for _, body := range []string{"{", `{"scael":"quick"}`, `{"only":["fig3"],"shards":2}`} {
		resp, err := http.Post(strings.TrimRight(c.base, "/")+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q status = %d, want 400", body, resp.StatusCode)
		}
	}

	// Nothing above may have registered a job.
	if jobs, err := c.Jobs(ctx); err != nil || len(jobs) != 0 {
		t.Fatalf("jobs after rejected submissions = %v, %v; want none", jobs, err)
	}
	if srv.jobByID("job-1") != nil {
		t.Fatal("rejected submission left a registered job")
	}
}

// TestAnalyticalJobMatchesGolden runs the simulation-free experiments
// through the daemon and byte-compares every rendered table against
// the golden fixtures — the full submit/watch/tables API round trip
// without simulation cost.
func TestAnalyticalJobMatchesGolden(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 2})
	ctx := context.Background()

	job, err := c.Submit(ctx, SweepRequest{Analytical: true})
	if err != nil {
		t.Fatal(err)
	}
	if job.Specs != 0 {
		t.Fatalf("analytical job has %d specs, want none", job.Specs)
	}

	var events []Event
	final, err := c.Watch(ctx, job.ID, 0, func(e Event) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	if final.Simulated != 0 || final.Started != 0 {
		t.Fatalf("analytical job reports started=%d simulated=%d, want zero", final.Started, final.Simulated)
	}
	if len(final.Tables) == 0 {
		t.Fatal("analytical job rendered no tables")
	}

	// The event stream carries the full lifecycle: queued, running,
	// one table event per rendering, done.
	var states []JobState
	tableEvents := 0
	for _, e := range events {
		switch e.Kind {
		case KindState:
			states = append(states, e.State)
		case "table":
			tableEvents++
		}
	}
	if len(states) == 0 || states[len(states)-1] != StateDone {
		t.Fatalf("state events = %v, want trailing done", states)
	}
	if tableEvents != len(final.Tables) {
		t.Fatalf("%d table events for %d tables", tableEvents, len(final.Tables))
	}

	tr, err := c.Tables(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tables) != len(final.Tables) {
		t.Fatalf("tables endpoint returned %d tables, job lists %d", len(tr.Tables), len(final.Tables))
	}
	for _, tab := range tr.Tables {
		if want := goldenTable(t, tab.ID); tab.Text != want {
			t.Errorf("table %s from the daemon differs from its golden rendering", tab.ID)
		}
	}
}

// TestDaemonGoldenAndWarmResubmit is the e2e acceptance path: an
// HTTP-submitted QuickScale fig3 sweep renders its table byte-identical
// to the golden fixture, and an immediate resubmit against the daemon's
// store performs zero simulations.
func TestDaemonGoldenAndWarmResubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon sweep simulation skipped in -short mode")
	}
	_, c := newTestDaemon(t, Config{CacheDir: t.TempDir(), Workers: 2})
	ctx := context.Background()
	req := SweepRequest{Scale: "quick", Only: []string{"fig3"}}

	cold, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq int64 = -1
	finishedEvents := 0
	coldFinal, err := c.Watch(ctx, cold.ID, 0, func(e Event) {
		if e.Seq >= 0 {
			if e.Seq != lastSeq+1 {
				t.Errorf("event gap: seq %d after %d", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
		}
		if e.Kind == "finished" {
			finishedEvents++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if coldFinal.State != StateDone {
		t.Fatalf("cold job finished %s (%s), want done", coldFinal.State, coldFinal.Error)
	}
	if coldFinal.Simulated == 0 {
		t.Fatal("cold run must simulate")
	}
	if coldFinal.Started != coldFinal.CacheHits+coldFinal.Simulated {
		t.Fatalf("progress invariant broken: started=%d cache-hits=%d simulated=%d",
			coldFinal.Started, coldFinal.CacheHits, coldFinal.Simulated)
	}
	if int64(finishedEvents) != coldFinal.Simulated {
		t.Fatalf("stream saw %d finished events, job counted %d", finishedEvents, coldFinal.Simulated)
	}

	tr, err := c.Tables(ctx, cold.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tables) != 1 || tr.Tables[0].ID != "fig3" {
		t.Fatalf("tables = %+v, want exactly fig3", tr.Tables)
	}
	if want := goldenTable(t, "fig3"); tr.Tables[0].Text != want {
		t.Fatal("daemon-rendered fig3 differs from the golden fixture")
	}

	// Warm resubmit: the store answers every spec; nothing simulates.
	warm, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	warmFinal, err := c.Watch(ctx, warm.ID, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warmFinal.State != StateDone {
		t.Fatalf("warm job finished %s (%s), want done", warmFinal.State, warmFinal.Error)
	}
	if warmFinal.Simulated != 0 {
		t.Fatalf("warm resubmit simulated %d specs, want 0", warmFinal.Simulated)
	}
	if warmFinal.CacheHits != coldFinal.Started {
		t.Fatalf("warm resubmit hit %d specs, want all %d", warmFinal.CacheHits, coldFinal.Started)
	}
	warmTr, err := c.Tables(ctx, warm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(warmTr.Tables) != 1 || warmTr.Tables[0].Text != tr.Tables[0].Text {
		t.Fatal("warm rendering differs from the cold run")
	}

	// The event log replays identically for a late subscriber resuming
	// from an arbitrary midpoint.
	var replayFirst int64 = -2
	if _, err := c.Watch(ctx, cold.ID, lastSeq/2, func(e Event) {
		if replayFirst == -2 {
			replayFirst = e.Seq
		}
	}); err != nil {
		t.Fatal(err)
	}
	if replayFirst != lastSeq/2 {
		t.Fatalf("replay from %d started at seq %d", lastSeq/2, replayFirst)
	}
}

// TestAttackEndpoint pins the synchronous attack-evaluation API: a
// valid batch evaluates in spec order, an identical resubmit against
// the daemon's store simulates nothing, and bad batches are typed
// 400s that never reach the harness.
func TestAttackEndpoint(t *testing.T) {
	_, c := newTestDaemon(t, Config{CacheDir: t.TempDir(), Workers: 2})
	ctx := context.Background()

	patterns := attack.PaperPatternNames()[:2]
	specs := []resultstore.AttackSpec{
		experiments.ZooAttackSpec("graphene", patterns[0]),
		experiments.ZooAttackSpec("graphene", patterns[1]),
	}
	results, err := c.EvaluateAttacks(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i, res := range results {
		if res.MaxDamage <= 0 {
			t.Errorf("result %d reports damage %v, want > 0", i, res.MaxDamage)
		}
	}

	// The remote answers must be exactly what a local evaluation
	// produces, in spec order — the "same spec runs locally and on a
	// fleet" contract.
	local, err := experiments.NewRunner(experiments.QuickScale()).EvaluateAttacks(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if results[i].Pattern != local[i].Pattern || results[i].MaxDamage != local[i].MaxDamage {
			t.Errorf("spec %d: remote (%q, %v) != local (%q, %v)", i,
				results[i].Pattern, results[i].MaxDamage, local[i].Pattern, local[i].MaxDamage)
		}
	}

	// Warm resubmit: the daemon's store serves the whole batch.
	var warm AttackResponse
	if err := c.do(ctx, http.MethodPost, "/v1/attacks", AttackRequest{Specs: specs}, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 0 {
		t.Fatalf("warm resubmit simulated %d specs, want 0", warm.Simulated)
	}
	if len(warm.Results) != len(results) || warm.Results[0].MaxDamage != results[0].MaxDamage {
		t.Fatal("warm results differ from the cold run")
	}

	// Bad batches: unknown tracker, malformed genome, empty request.
	bad := experiments.ZooAttackSpec("graphene", patterns[0])
	bad.Tracker = "nope"
	if _, err := c.EvaluateAttacks(ctx, []resultstore.AttackSpec{bad}); !errors.Is(err, errs.ErrBadSpec) {
		t.Errorf("unknown tracker error = %v, want errs.ErrBadSpec", err)
	}
	if _, err := c.EvaluateAttacks(ctx, []resultstore.AttackSpec{
		experiments.ZooAttackSpec("graphene", attack.SynthSpecPrefix+"garbage"),
	}); !errors.Is(err, errs.ErrBadSpec) {
		t.Errorf("malformed genome error = %v, want errs.ErrBadSpec", err)
	}
	if _, err := c.EvaluateAttacks(ctx, nil); !errors.Is(err, errs.ErrBadSpec) {
		t.Errorf("empty batch error = %v, want errs.ErrBadSpec", err)
	}
}

// TestShutdownMidJobResumesWarmOnRestart pins the crash/restart story
// at the package level (CI kills the real process): a daemon shut down
// mid-sweep reports the job cancelled, and a fresh daemon on the same
// store directory finishes the sweep serving every already-simulated
// spec as a cache hit.
func TestShutdownMidJobResumesWarmOnRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon sweep simulation skipped in -short mode")
	}
	dir := t.TempDir()
	ctx := context.Background()
	req := SweepRequest{Scale: "quick", Only: []string{"fig3"}}

	srv1, err := New(Config{CacheDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()
	c1 := NewClient(ts1.URL)

	job1, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Let a few specs complete so the restart has something to be warm
	// about, then pull the plug.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		j, err := c1.Job(ctx, job1.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Simulated >= 2 {
			break
		}
		if j.State.Terminal() {
			t.Fatalf("job reached %s before the shutdown", j.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the first simulations")
		}
		time.Sleep(50 * time.Millisecond)
	}
	shutCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := srv1.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	interrupted, err := c1.Job(ctx, job1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if interrupted.State != StateCancelled {
		t.Fatalf("interrupted job state = %s (%s), want cancelled", interrupted.State, interrupted.Error)
	}
	if interrupted.ErrorKind != kindCancelled {
		t.Fatalf("interrupted job error kind = %q, want %q", interrupted.ErrorKind, kindCancelled)
	}
	// Draining refuses new work.
	if _, err := c1.Submit(ctx, req); err == nil || errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("submit while draining = %v, want a 503-backed server error", err)
	}

	// "Restart": a new daemon over the same store directory.
	srv2, c2 := newTestDaemon(t, Config{CacheDir: dir, Workers: 2})
	_ = srv2
	job2, err := c2.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c2.Watch(ctx, job2.ID, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("resumed job finished %s (%s), want done", final.State, final.Error)
	}
	if final.CacheHits < interrupted.Simulated {
		t.Fatalf("resume served %d cache hits; the interrupted run persisted %d results",
			final.CacheHits, interrupted.Simulated)
	}
	if final.Simulated >= final.Started {
		t.Fatalf("resume simulated %d of %d specs — nothing was warm", final.Simulated, final.Started)
	}
	tr, err := c2.Tables(ctx, job2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tables) != 1 || tr.Tables[0].Text != goldenTable(t, "fig3") {
		t.Fatal("resumed rendering differs from the golden fixture")
	}
}
