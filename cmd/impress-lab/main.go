// Command impress-lab is the client for impress-labd, the sweep
// service: the same experiment selections impress-experiments runs
// locally, submitted to a daemon instead — no spec changes, just a
// different executor (DESIGN.md §11).
//
// Usage:
//
//	impress-lab submit [-addr URL] [-scale quick|standard|full]
//	                   [-only fig3,...] [-analytical] [-watch]
//	impress-lab status [-addr URL] [jobID]
//	impress-lab watch  [-addr URL] [-from SEQ] jobID
//	impress-lab tables [-addr URL] [-out DIR] jobID
//
// submit enqueues a sweep and prints its job ID (with -watch it then
// behaves like watch). status shows one job — or, without an ID, every
// job in submission order. watch streams the job's progress events as
// log lines until it finishes, exiting 0 only for a completed job; a
// broken stream can resume with -from. tables fetches the rendered
// experiment tables, byte-identical to a local run's output: -out
// writes DIR/<id>.txt files exactly like impress-experiments -out.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"impress"
	"impress/internal/simcli"
)

func main() {
	ctx, stop := simcli.SignalContext()
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

const defaultAddr = "http://127.0.0.1:8057"

// addrFlag installs -addr with the shared default ($IMPRESS_LABD, then
// the daemon's default port on localhost).
func addrFlag(fs *flag.FlagSet) *string {
	def := os.Getenv("IMPRESS_LABD")
	if def == "" {
		def = defaultAddr
	}
	return fs.String("addr", def, "impress-labd base URL (default $IMPRESS_LABD)")
}

// run executes the CLI and returns the process exit code; it is the
// testable seam for the command.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(stderr, "usage: impress-lab submit|status|watch|tables [flags] [jobID]")
		return 2
	}
	switch args[0] {
	case "submit":
		return runSubmit(ctx, args[1:], stdout, stderr)
	case "status":
		return runStatus(ctx, args[1:], stdout, stderr)
	case "watch":
		return runWatch(ctx, args[1:], stdout, stderr)
	case "tables":
		return runTables(ctx, args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "impress-lab: unknown command %q (want submit, status, watch or tables)\n", args[0])
		return 2
	}
}

// fail prints err and maps it to the repo's exit-code convention:
// usage errors (bad spec, unknown workload — HTTP 400s reconstructed
// by the client) exit 2, interruptions and run failures exit 1.
func fail(stderr io.Writer, err error) int {
	if simcli.ReportInterrupted(stderr, err, "") {
		return 1
	}
	fmt.Fprintln(stderr, err)
	if simcli.UsageError(err) {
		return 2
	}
	return 1
}

// jobLine renders one job status line.
func jobLine(j impress.SweepJob) string {
	line := fmt.Sprintf("%s %s scale=%s specs=%d started=%d cache-hits=%d simulated=%d tables=%d",
		j.ID, j.State, j.Scale, j.Specs, j.Started, j.CacheHits, j.Simulated, len(j.Tables))
	if j.Error != "" {
		line += " error=" + j.Error
	}
	return line
}

// eventLine renders one progress event as a log line.
func eventLine(e impress.SweepEvent) string {
	switch e.Kind {
	case "state":
		if e.Error != "" {
			return fmt.Sprintf("state: %s: %s", e.State, e.Error)
		}
		return fmt.Sprintf("state: %s", e.State)
	case "lagged":
		return fmt.Sprintf("lagged: %d events dropped (stream is best-effort; status totals stay exact)", e.Dropped)
	case "table":
		return fmt.Sprintf("table %s rendered", e.Table)
	case "finished":
		return fmt.Sprintf("spec %s finished cycles=%d", e.Spec, e.Cycles)
	default:
		return fmt.Sprintf("spec %s %s", e.Spec, e.Kind)
	}
}

// watchJob streams events to stdout until the job finishes and prints
// the final summary; shared by watch and submit -watch.
func watchJob(ctx context.Context, c *impress.SweepClient, id string, from int64, stdout, stderr io.Writer) int {
	final, err := c.Watch(ctx, id, from, func(e impress.SweepEvent) {
		fmt.Fprintln(stdout, eventLine(e))
	})
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, jobLine(final))
	if final.State != impress.SweepStateDone {
		return 1
	}
	return 0
}

func runSubmit(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impress-lab submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := addrFlag(fs)
	scale := fs.String("scale", "quick", "simulation scale: quick, standard, or full")
	only := fs.String("only", "", "comma-separated experiment IDs (default: all)")
	analytical := fs.Bool("analytical", false, "run only the analytical (no-simulation) experiments")
	watch := fs.Bool("watch", false, "stream the job's events until it finishes")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "impress-lab submit takes no positional arguments (got %q)\n", fs.Arg(0))
		return 2
	}
	req := impress.SweepRequest{Scale: *scale, Analytical: *analytical}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			req.Only = append(req.Only, id)
		}
	}
	c := impress.NewSweepClient(*addr)
	job, err := c.Submit(ctx, req)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, jobLine(job))
	if !*watch {
		return 0
	}
	return watchJob(ctx, c, job.ID, 0, stdout, stderr)
}

func runStatus(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impress-lab status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := addrFlag(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	c := impress.NewSweepClient(*addr)
	switch fs.NArg() {
	case 0:
		jobs, err := c.Jobs(ctx)
		if err != nil {
			return fail(stderr, err)
		}
		if len(jobs) == 0 {
			fmt.Fprintln(stdout, "no jobs")
			return 0
		}
		for _, j := range jobs {
			fmt.Fprintln(stdout, jobLine(j))
		}
		return 0
	case 1:
		j, err := c.Job(ctx, fs.Arg(0))
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintln(stdout, jobLine(j))
		return 0
	default:
		fmt.Fprintln(stderr, "impress-lab status takes at most one jobID")
		return 2
	}
}

func runWatch(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impress-lab watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := addrFlag(fs)
	from := fs.Int64("from", 0, "resume the event stream from this sequence number")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: impress-lab watch [-addr URL] [-from SEQ] jobID")
		return 2
	}
	return watchJob(ctx, impress.NewSweepClient(*addr), fs.Arg(0), *from, stdout, stderr)
}

func runTables(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impress-lab tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := addrFlag(fs)
	outDir := fs.String("out", "", "directory to write per-experiment text files (default: render to stdout)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: impress-lab tables [-addr URL] [-out DIR] jobID")
		return 2
	}
	c := impress.NewSweepClient(*addr)
	tr, err := c.Tables(ctx, fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	if tr.State != impress.SweepStateDone {
		fmt.Fprintf(stderr, "job %s is %s; tables below may be partial\n", fs.Arg(0), tr.State)
	}
	if *outDir == "" {
		for _, tab := range tr.Tables {
			fmt.Fprint(stdout, tab.Text)
		}
		return 0
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, tab := range tr.Tables {
		if err := os.WriteFile(filepath.Join(*outDir, tab.ID+".txt"), []byte(tab.Text), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "wrote %d tables to %s\n", len(tr.Tables), *outDir)
	return 0
}
