// Package labd implements the sweep-as-a-service daemon behind
// cmd/impress-labd (DESIGN.md §11): a long-running HTTP/JSON server
// that accepts the same experiment selections the CLI takes
// (POST /v1/sweeps), runs each job's plan on the experiments worker
// pool under one spec bound shared by every job and attack batch, and
// streams the Lab's progress events to any number of clients as NDJSON
// (GET /v1/jobs/{id}/events).
//
// The persistent result store is the daemon's cache tier and its
// durability story in one: every completed simulation is written
// atomically as it finishes, so a warm resubmit simulates nothing, a
// second daemon pointed at the same directory serves the first one's
// results, and a daemon killed mid-job resumes warm on restart —
// losing only the specs that were in flight at the kill.
//
// Shutdown is graceful by construction: draining refuses new
// submissions (503), cancels every job's context, and the existing
// cancellation points — pool workers stop pulling specs, in-flight
// simulations stop within one macro cycle — drain every job while
// completed results persist.
package labd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"

	"impress/internal/errs"
	"impress/internal/experiments"
	"impress/internal/resultstore"
)

// Config sizes a Server. The zero value is usable: no persistent
// store, GOMAXPROCS workers.
type Config struct {
	// CacheDir is the persistent result-store directory shared by every
	// job (created if needed). Empty runs without persistence: jobs
	// still execute, but nothing survives a restart and resubmits run
	// cold.
	CacheDir string
	// Workers bounds how many specs run at once across every job and
	// /v1/attacks batch: simulations, pool-run attack evaluations and
	// ablation-rfm's harness rows. A table builder's direct harness
	// runs (eq5, fig18, security, prac) are not bounded by it. Jobs
	// interleave per spec. Default: GOMAXPROCS.
	Workers int
	// SubscriberBuffer bounds each /events client's channel; a client
	// further behind drops events and sees a lagged marker. Default 256.
	SubscriberBuffer int
	// RetainEvents caps each job's replayable event log. Default 16384.
	RetainEvents int
	// Logf, when non-nil, receives one line per daemon-level action
	// (submissions, completions, shutdown).
	Logf func(format string, args ...any)
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) subscriberBuffer() int {
	if c.SubscriberBuffer > 0 {
		return c.SubscriberBuffer
	}
	return 256
}

func (c Config) retainEvents() int {
	if c.RetainEvents > 0 {
		return c.RetainEvents
	}
	return 16384
}

// Server is the daemon: an http.Handler owning the job table, the
// spec-slot bound and the shared result store. Construct with New,
// serve via Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	store *resultstore.Store
	mux   *http.ServeMux

	// slots is the Workers bound every job's and attack batch's runner
	// shares (experiments.Runner.Slots).
	slots chan struct{}

	// jobCtx is the ancestor of every job's context; Shutdown cancels
	// it to drain the jobs through the existing cancellation points.
	jobCtx     context.Context
	cancelJobs context.CancelFunc
	jobWG      sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	nextID   int
	draining bool
}

// job is the server-side state of one submitted sweep.
type job struct {
	id  string
	srv *Server
	req SweepRequest
	// plan is the selection's one planning pass, made at submit, bound
	// to the job's runner: it runs the specs and assembles the tables.
	plan   *experiments.Plan
	ctx    context.Context
	cancel context.CancelFunc
	hub    *hub
	specs  int

	mu        sync.Mutex
	state     JobState
	started   int64
	cacheHits int64
	simulated int64
	tables    []RenderedTable
	err       error
}

// New builds a Server from cfg, opening the result store.
func New(cfg Config) (*Server, error) {
	var store *resultstore.Store
	if cfg.CacheDir != "" {
		var err error
		if store, err = resultstore.Open(cfg.CacheDir); err != nil {
			return nil, fmt.Errorf("labd: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      store,
		slots:      make(chan struct{}, cfg.workers()),
		jobCtx:     ctx,
		cancelJobs: cancel,
		jobs:       make(map[string]*job),
	}
	s.routes()
	return s, nil
}

// Store returns the server's result store (nil when persistence is
// disabled).
func (s *Server) Store() *resultstore.Store { return s.store }

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Shutdown drains the daemon: new submissions are refused (503), every
// job's context is cancelled so in-flight specs stop at their
// existing cancellation points (completed simulations persist — the
// resume-warm contract), and every job winds down. It returns once
// everything has drained, or with ctx's error if the deadline passes
// first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancelJobs()
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("labd: drained")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("labd: shutdown incomplete: %w", ctx.Err())
	}
}

// submit validates a request and, if it passes, registers and starts
// the job. All validation happens here, before anything runs, so a bad
// request cannot take a slot: an unknown scale or experiment ID or an
// unresolvable workload come back as typed errors the HTTP layer maps
// to 400.
func (s *Server) submit(req SweepRequest) (*job, error) {
	if req.Scale == "" {
		req.Scale = "quick"
	}
	scale, err := experiments.ScaleByName(req.Scale)
	if err != nil {
		return nil, err
	}
	runner := s.runner(scale)
	plan, err := experiments.PlanTables(runner, experiments.RunOptions{Only: req.Only, Analytical: req.Analytical})
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.nextID++
	j := &job{
		id:    fmt.Sprintf("job-%d", s.nextID),
		srv:   s,
		req:   req,
		plan:  plan,
		hub:   newHub(s.cfg.retainEvents()),
		specs: plan.Len(),
		state: StateQueued,
	}
	j.ctx, j.cancel = context.WithCancel(s.jobCtx)
	runner.Progress = j.onProgress
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.jobWG.Add(1)
	s.mu.Unlock()

	j.hub.publish(Event{Kind: KindState, State: StateQueued})
	s.logf("labd: %s submitted: scale=%s specs=%d", j.id, req.Scale, j.specs)
	go j.run()
	return j, nil
}

// runner returns a runner at scale bound to the daemon's store and
// its Workers slots.
func (s *Server) runner(scale experiments.Scale) *experiments.Runner {
	r := experiments.NewRunner(scale)
	r.Parallelism = s.cfg.workers()
	r.Slots = s.slots
	r.Store = s.store
	return r
}

// errDraining marks a submission refused because shutdown has begun.
var errDraining = errors.New("labd: draining: not accepting new sweeps")

// jobByID returns the registered job, or nil.
func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// snapshotAll returns every job snapshot in submission order.
func (s *Server) snapshotAll() []Job {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

// run drives one job to a terminal state: the submit-time plan runs
// its specs on the experiments pool, each holding one of the daemon's
// slots, then assembles the tables without planning again.
func (j *job) run() {
	defer j.srv.jobWG.Done()
	defer j.cancel()
	defer j.release()
	j.setState(StateRunning, nil)
	_, err := j.plan.Tables(j.ctx, func(t *experiments.Table) {
		var buf bytes.Buffer
		t.Render(&buf)
		j.mu.Lock()
		j.tables = append(j.tables, RenderedTable{ID: t.ID, Text: buf.String()})
		j.mu.Unlock()
	})
	j.finish(err)
}

// release drops the job's plan once it has run: the job table keeps
// every finished job, and a plan holds every planned spec and its
// runner, which holds its memoized results.
func (j *job) release() {
	j.mu.Lock()
	j.plan = nil
	j.mu.Unlock()
}

// onProgress is the job runner's progress callback: counters for the
// status endpoint, one published event for the stream. Runner
// callbacks are serialized, but the hub and counters take their own
// locks anyway since table capture runs on the job goroutine.
func (j *job) onProgress(p experiments.Progress) {
	j.mu.Lock()
	switch p.Kind {
	case experiments.ProgressSpecStarted:
		j.started++
	case experiments.ProgressSpecCacheHit:
		j.cacheHits++
	case experiments.ProgressSpecFinished:
		j.simulated++
	}
	j.mu.Unlock()
	j.hub.publish(Event{
		Kind:   p.Kind.String(),
		Spec:   p.Spec,
		Key:    p.Key,
		Cycles: p.Cycles,
		Table:  p.Table,
	})
}

// setState transitions the job and publishes the state event.
func (j *job) setState(st JobState, err error) {
	j.mu.Lock()
	j.state = st
	if err != nil {
		j.err = err
	}
	e := Event{Kind: KindState, State: st}
	if j.err != nil && st.Terminal() {
		e.Error = j.err.Error()
	}
	j.mu.Unlock()
	j.hub.publish(e)
}

// finish resolves the terminal state from err, publishes it, and ends
// the event stream.
func (j *job) finish(err error) {
	st := StateDone
	switch {
	case err == nil:
	case errors.Is(err, errs.ErrCancelled), errors.Is(err, context.Canceled):
		st = StateCancelled
	default:
		st = StateFailed
	}
	j.setState(st, err)
	j.hub.close()
	snap := j.snapshot()
	j.srv.logf("labd: %s %s: started=%d cache-hits=%d simulated=%d tables=%d",
		j.id, snap.State, snap.Started, snap.CacheHits, snap.Simulated, len(snap.Tables))
}

// snapshot renders the job's wire form.
func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := Job{
		ID:         j.id,
		State:      j.state,
		Scale:      j.req.Scale,
		Only:       append([]string(nil), j.req.Only...),
		Analytical: j.req.Analytical,
		Specs:      j.specs,
		Started:    j.started,
		CacheHits:  j.cacheHits,
		Simulated:  j.simulated,
	}
	for _, t := range j.tables {
		out.Tables = append(out.Tables, t.ID)
	}
	if j.err != nil && j.state.Terminal() && j.state != StateDone {
		out.Error = j.err.Error()
		out.ErrorKind = errKind(j.err)
	}
	return out
}

// renderedTables returns the tables assembled so far with the state
// they were observed under.
func (j *job) renderedTables() TablesResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return TablesResponse{
		State:  j.state,
		Tables: append([]RenderedTable(nil), j.tables...),
	}
}

// errKind maps a taxonomy error to its wire kind.
func errKind(err error) string {
	switch {
	case errors.Is(err, errs.ErrBadSpec):
		return kindBadSpec
	case errors.Is(err, errs.ErrUnknownWorkload):
		return kindUnknownWorkload
	case errors.Is(err, errs.ErrCancelled), errors.Is(err, context.Canceled):
		return kindCancelled
	default:
		return kindInternal
	}
}

// routes installs the API surface.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/attacks", s.handleAttacks)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/tables", s.handleTables)
}

// writeJSON writes v as the response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// writeError maps err onto the wire: 400 for the caller-input
// taxonomy, 503 while draining, 500 otherwise.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	kind := errKind(err)
	switch {
	case errors.Is(err, errDraining):
		status = http.StatusServiceUnavailable
	case kind == kindBadSpec, kind == kindUnknownWorkload:
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorBody{Error: err.Error(), Kind: kind})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	h := Health{OK: true, Draining: s.draining, Jobs: len(s.jobs)}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("labd: %w: malformed sweep request: %w", errs.ErrBadSpec, err))
		return
	}
	j, err := s.submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// handleAttacks evaluates a batch of security-harness specs
// synchronously: every spec is validated before anything simulates (a
// bad batch is a pure 400), then the batch runs through a fresh runner
// bound to the daemon's store and its Workers slots, so a batch and the
// running sweeps together evaluate at most Workers specs at once, and
// identical specs — within the batch, across batches, across daemons
// sharing a store directory — evaluate once. Shutdown cancels in-flight batches through the job context,
// and draining refuses new ones, the same lifecycle sweeps get.
func (s *Server) handleAttacks(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, errDraining)
		return
	}
	var req AttackRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("labd: %w: malformed attack request: %w", errs.ErrBadSpec, err))
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, fmt.Errorf("labd: %w: attack request has no specs", errs.ErrBadSpec))
		return
	}
	for i := range req.Specs {
		if err := req.Specs[i].Validate(); err != nil {
			writeError(w, err)
			return
		}
	}
	runner := s.runner(experiments.QuickScale())
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.jobCtx, cancel)
	defer stop()
	results, err := runner.EvaluateAttacks(ctx, req.Specs)
	if err != nil {
		writeError(w, err)
		return
	}
	s.logf("labd: attacks: specs=%d simulated=%d", len(req.Specs), runner.AttackSims())
	writeJSON(w, http.StatusOK, AttackResponse{Results: results, Simulated: runner.AttackSims()})
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshotAll())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id"), Kind: kindBadSpec})
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id"), Kind: kindBadSpec})
		return
	}
	writeJSON(w, http.StatusOK, j.renderedTables())
}

// handleEvents streams the job's events as NDJSON (appendEvent): the
// retained backlog from ?from= (default 0) first, then live events
// until the job reaches a terminal state or the client disconnects. A client
// that reads too slowly loses events and sees an explicit lagged
// marker; the sweep itself never waits.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id"), Kind: kindBadSpec})
		return
	}
	var from int64
	if v := r.URL.Query().Get("from"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, fmt.Errorf("labd: %w: malformed from=%q: %w", errs.ErrBadSpec, v, err))
			return
		}
		from = parsed
	}
	backlog, ch, cancelSub := j.hub.subscribe(from, s.cfg.subscriberBuffer())
	defer cancelSub()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Flush once after the backlog and after a live event only when no
	// further event is already queued: a burst goes out in one write,
	// and the last event of any burst is never held back.
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	var buf []byte
	write := func(e *Event) bool {
		buf = appendEvent(buf[:0], e)
		_, err := w.Write(buf)
		return err == nil
	}
	for i := range backlog {
		if !write(&backlog[i]) {
			return
		}
	}
	flush()
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return
			}
			if !write(&e) {
				return
			}
			if len(ch) == 0 {
				flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
