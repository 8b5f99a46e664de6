package labd

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"impress/internal/errs"
)

// TestEventsClientDisconnectMidStream is the /events fault-injection
// case: a client that hangs up mid-stream ends its handler, which
// leaves the hub with no subscriber, while the job runs on to done and
// a fresh watch from 0 replays the whole retained log.
func TestEventsClientDisconnectMidStream(t *testing.T) {
	srv, c := newTestDaemon(t, Config{Workers: 1})
	ctx := context.Background()
	// The security table runs the harness for about a second: long
	// enough to hang up while the job is still running.
	job, err := c.Submit(ctx, SweepRequest{Only: []string{"security"}})
	if err != nil {
		t.Fatal(err)
	}
	watchCtx, hangUp := context.WithCancel(ctx)
	var head []Event
	_, err = c.Watch(watchCtx, job.ID, 0, func(e Event) {
		head = append(head, e)
		if len(head) == 2 {
			hangUp()
		}
	})
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("watch after hanging up = %v, want a cancellation", err)
	}

	j := srv.jobByID(job.ID)
	subscribers := func() int {
		j.hub.mu.Lock()
		defer j.hub.mu.Unlock()
		return len(j.hub.subs)
	}
	deadline := time.Now().Add(10 * time.Second)
	for subscribers() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the hub still has a subscriber 10 s after its client hung up")
		}
		time.Sleep(time.Millisecond)
	}
	if st := j.snapshot().State; st.Terminal() {
		t.Fatalf("the job was already %s when the handler returned: the hang-up was not mid-stream", st)
	}

	var replay []Event
	final, err := c.Watch(ctx, job.ID, 0, func(e Event) { replay = append(replay, e) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	for i, e := range replay {
		if e.Seq != int64(i) {
			t.Fatalf("replayed event %d has seq %d (kind %s): the log is not whole", i, e.Seq, e.Kind)
		}
	}
	if len(replay) < len(head) || !reflect.DeepEqual(replay[:len(head)], head) {
		t.Fatalf("replay %+v does not start with the events read before hanging up %+v", replay, head)
	}
	if last := replay[len(replay)-1]; last.Kind != KindState || last.State != StateDone {
		t.Fatalf("replay ends with %+v, want the done state", last)
	}
}
