package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"impress"
)

func TestRunRejectsBadUsage(t *testing.T) {
	ctx := context.Background()
	var out, errOut bytes.Buffer
	if code := run(ctx, []string{"positional"}, &out, &errOut); code != 2 {
		t.Errorf("positional arg: exit %d, want 2 (stderr: %s)", code, errOut.String())
	}
	errOut.Reset()
	if code := run(ctx, []string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2 (stderr: %s)", code, errOut.String())
	}
	errOut.Reset()
	if code := run(ctx, []string{"-addr", "256.256.256.256:1"}, &out, &errOut); code != 2 {
		t.Errorf("unlistenable addr: exit %d, want 2 (stderr: %s)", code, errOut.String())
	}
}

// TestHTTPServerTimeouts pins the server's connection bounds: header
// and idle timeouts are set, and neither a read nor a write timeout is,
// since either would cut a long-lived /events stream.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout != readHeaderTimeout || s.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", s.ReadHeaderTimeout, readHeaderTimeout)
	}
	if s.IdleTimeout != idleTimeout || s.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", s.IdleTimeout, idleTimeout)
	}
	if s.WriteTimeout != 0 || s.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v; both must be 0 so /events can stream", s.WriteTimeout, s.ReadTimeout)
	}
	if s.Handler == nil {
		t.Error("server has no handler")
	}
}

// startDaemon boots run() on an ephemeral port and returns the base
// URL parsed from the readiness line plus the exit-code channel; the
// cancel func triggers graceful drain.
func startDaemon(t *testing.T, args []string) (string, context.CancelFunc, <-chan int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		defer pw.Close()
		code <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), pw, io.Discard)
	}()
	sc := bufio.NewScanner(pr)
	lines := make(chan string, 1)
	go func() {
		if sc.Scan() {
			lines <- sc.Text()
		}
		// Keep draining so later writes to the pipe never block.
		for sc.Scan() {
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		if !ok {
			t.Fatalf("daemon exited before readiness line (exit %d)", <-code)
		}
		const marker = "listening on "
		i := strings.Index(line, marker)
		if i < 0 {
			t.Fatalf("readiness line %q lacks %q", line, marker)
		}
		return line[i+len(marker):], cancel, code
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never printed its readiness line")
	}
	panic("unreachable")
}

// TestDaemonServesAndDrainsGracefully boots the real binary seam on an
// ephemeral port, runs an analytical sweep through the public client,
// and checks that the first cancellation drains to exit 0.
func TestDaemonServesAndDrainsGracefully(t *testing.T) {
	base, cancel, code := startDaemon(t, []string{"-workers", "1"})
	ctx, tcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer tcancel()

	c := impress.NewSweepClient(base)
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Draining {
		t.Fatalf("health = %+v, want ok and not draining", h)
	}

	job, err := c.Submit(ctx, impress.SweepRequest{Analytical: true})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Watch(ctx, job.ID, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != impress.SweepStateDone {
		t.Fatalf("analytical job ended %s (error %q), want done", final.State, final.Error)
	}
	if len(final.Tables) == 0 {
		t.Fatal("analytical job rendered no tables")
	}

	cancel()
	select {
	case got := <-code:
		if got != 0 {
			t.Fatalf("graceful drain exited %d, want 0", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after cancellation")
	}
}
