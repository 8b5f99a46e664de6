// Command impress-labd runs the sweep-as-a-service daemon: the same
// experiment sweeps the impress-experiments CLI performs, behind a
// long-running HTTP/JSON API (DESIGN.md §11).
//
// Usage:
//
//	impress-labd [-addr HOST:PORT] [-cache-dir DIR] [-workers N]
//
// POST /v1/sweeps submits a job (experiment IDs and scale — the CLI's
// selection flags as JSON), GET /v1/jobs/{id} reports its status, and
// GET /v1/jobs/{id}/events streams the run's progress events as
// NDJSON. Every job and /v1/attacks batch runs its specs on the
// experiments worker pool, and -workers bounds how many specs they run
// at once all together; the -cache-dir result store is the shared
// cache tier, so a warm resubmit simulates nothing and a daemon
// restarted after a crash resumes warm. Drive it with impress-lab, the
// companion client.
//
// The first SIGINT/SIGTERM drains gracefully: submissions are refused,
// in-flight specs stop at their next cancellation point with every
// completed result persisted. A second signal force-kills.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"impress/internal/labd"
	"impress/internal/simcli"
)

// Connection timeouts: a client has readHeaderTimeout to send its
// request headers, so a stalled or slow peer cannot pin a connection,
// and an idle keep-alive connection closes after idleTimeout. There is
// deliberately no write timeout: /events streams NDJSON for as long as
// its job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the daemon's HTTP server around h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	ctx, stop := simcli.SignalContext()
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the daemon until ctx ends, returning the process exit
// code; it is the testable seam for the command. The listening URL is
// printed to stdout once the socket is open, so callers (tests, CI
// scripts) can wait for readiness and learn a dynamically chosen port.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impress-labd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8057", "listen address (use :0 for an ephemeral port)")
	cacheDir := fs.String("cache-dir", os.Getenv("IMPRESS_CACHE"),
		"persistent result-store directory shared by all jobs (default $IMPRESS_CACHE; empty disables persistence)")
	workers := fs.Int("workers", 0, "specs run at once across all jobs and attack batches (0 = all CPUs)")
	drain := fs.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight specs to stop")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "impress-labd takes no positional arguments (got %q)\n", fs.Arg(0))
		return 2
	}

	srv, err := labd.New(labd.Config{
		CacheDir: *cacheDir,
		Workers:  *workers,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, format+"\n", a...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "impress-labd listening on http://%s\n", ln.Addr())
	if *cacheDir != "" {
		fmt.Fprintf(stderr, "impress-labd: result store %s\n", *cacheDir)
	} else {
		fmt.Fprintln(stderr, "impress-labd: no -cache-dir: results will not survive a restart")
	}

	web := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- web.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop the jobs first — that closes the event
	// streams — then the HTTP server. A second signal is no longer
	// caught (see simcli.SignalContext), so it force-kills a stuck
	// drain.
	fmt.Fprintln(stderr, "impress-labd: draining (signal again to force-exit)")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(stderr, err)
		code = 1
	}
	if err := web.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(stderr, err)
		code = 1
	}
	return code
}
