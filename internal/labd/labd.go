// Package labd implements the sweep-as-a-service daemon behind
// cmd/impress-labd (DESIGN.md §11): a long-running HTTP/JSON server
// that accepts the same experiment selections the CLI takes
// (POST /v1/sweeps), partitions each job's deduplicated simulation
// universe with the deterministic shard seam, executes the shards on a
// bounded worker pool shared by every job, and streams the Lab's
// progress events to any number of clients as NDJSON
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
// cancellation points — workers stop pulling specs, in-flight
// simulations stop within one macro cycle — drain the pool while
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
// store, GOMAXPROCS workers, one shard per worker.
type Config struct {
	// CacheDir is the persistent result-store directory shared by every
	// job (created if needed). Empty runs without persistence: jobs
	// still execute, but nothing survives a restart and resubmits run
	// cold.
	CacheDir string
	// Workers bounds how many shards simulate concurrently across all
	// jobs — the daemon's total simulation parallelism, since each
	// shard runs its specs serially. Default: GOMAXPROCS.
	Workers int
	// ShardsPerJob is the default partition count per job (overridable
	// per request). Default: Workers, so one job can occupy the whole
	// pool.
	ShardsPerJob int
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

func (c Config) shardsPerJob() int {
	if c.ShardsPerJob > 0 {
		return c.ShardsPerJob
	}
	return c.workers()
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
// worker pool and the shared result store. Construct with New, serve
// via Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	store *resultstore.Store
	mux   *http.ServeMux

	// jobCtx is the ancestor of every job's context; Shutdown cancels
	// it to drain the pool through the existing cancellation points.
	jobCtx     context.Context
	cancelJobs context.CancelFunc

	queue    chan task
	workerWG sync.WaitGroup
	jobWG    sync.WaitGroup
	stopOnce sync.Once

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	nextID   int
	draining bool
}

// task is one unit on the worker queue: one shard of one job.
type task struct {
	j     *job
	shard experiments.Shard
}

// job is the server-side state of one submitted sweep.
type job struct {
	id     string
	srv    *Server
	req    SweepRequest
	runner *experiments.Runner
	// plan is the selection's one planning pass, made at submit: its
	// shards feed the pool and it assembles the tables.
	plan   *experiments.Plan
	ctx    context.Context
	cancel context.CancelFunc
	hub    *hub
	shards []experiments.Shard
	specs  int
	// shardCount is len(shards), kept for the status snapshot after
	// release drops the shards.
	shardCount int

	pending sync.WaitGroup

	mu        sync.Mutex
	state     JobState
	started   int64
	cacheHits int64
	simulated int64
	tables    []RenderedTable
	err       error
}

// New builds a Server from cfg, opening the result store and starting
// the worker pool.
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
		jobCtx:     ctx,
		cancelJobs: cancel,
		queue:      make(chan task, 1024),
		jobs:       make(map[string]*job),
	}
	s.routes()
	for i := 0; i < cfg.workers(); i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
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

// worker executes shard tasks until the queue closes. Each task runs
// its shard of the job's plan under the job context: the store serves
// warm hits, and cancellation stops the shard at its next spec
// boundary.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.queue {
		if err := t.shard.Prefetch(t.j.ctx); err != nil {
			t.j.recordErr(err)
		}
		t.j.pending.Done()
	}
}

// Shutdown drains the daemon: new submissions are refused (503), every
// job's context is cancelled so in-flight shards stop at their
// existing cancellation points (completed simulations persist — the
// resume-warm contract), and the worker pool winds down. It returns
// once everything has drained, or with ctx's error if the deadline
// passes first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancelJobs()
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		s.stopOnce.Do(func() { close(s.queue) })
		s.workerWG.Wait()
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
// the job. All validation happens here, before anything is queued, so
// a bad request cannot occupy the pool: an unknown scale or experiment
// ID, an unresolvable workload, or an out-of-range shard count come
// back as typed errors the HTTP layer maps to 400.
func (s *Server) submit(req SweepRequest) (*job, error) {
	if req.Scale == "" {
		req.Scale = "quick"
	}
	scale, err := experiments.ScaleByName(req.Scale)
	if err != nil {
		return nil, err
	}
	runner := experiments.NewRunner(scale)
	// Each shard runs serially; the worker pool is the parallelism.
	runner.Parallelism = 1
	runner.Store = s.store
	plan, err := experiments.PlanTables(runner, experiments.RunOptions{Only: req.Only, Analytical: req.Analytical})
	if err != nil {
		return nil, err
	}
	specs := plan.Len()
	shardCount := req.Shards
	if shardCount == 0 {
		shardCount = s.cfg.shardsPerJob()
	}
	if shardCount < 1 {
		return nil, fmt.Errorf("labd: %w: shard count %d out of range (want >= 1)", errs.ErrBadSpec, shardCount)
	}
	if shardCount > specs {
		shardCount = specs // an all-analytical job has no shards at all
	}
	var shards []experiments.Shard
	for i := 1; i <= shardCount; i++ {
		shard, err := plan.Shard(i, shardCount)
		if err != nil {
			return nil, err
		}
		if shard.Len() > 0 {
			shards = append(shards, shard)
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.nextID++
	j := &job{
		id:         fmt.Sprintf("job-%d", s.nextID),
		srv:        s,
		req:        req,
		runner:     runner,
		plan:       plan,
		hub:        newHub(s.cfg.retainEvents()),
		shards:     shards,
		specs:      specs,
		shardCount: len(shards),
		state:      StateQueued,
	}
	j.ctx, j.cancel = context.WithCancel(s.jobCtx)
	runner.Progress = j.onProgress
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.jobWG.Add(1)
	s.mu.Unlock()

	j.hub.publish(Event{Kind: KindState, State: StateQueued})
	s.logf("labd: %s submitted: scale=%s specs=%d shards=%d", j.id, req.Scale, j.specs, len(shards))
	go j.run()
	return j, nil
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

// run drives one job to a terminal state: fan the shards out to the
// pool, wait for them, then assemble the tables from the submit-time
// plan — memo- and store-warm by then, so assembly simulates nothing
// new and plans nothing again.
func (j *job) run() {
	defer j.srv.jobWG.Done()
	defer j.cancel()
	defer j.release()
	j.setState(StateRunning, nil)

	j.pending.Add(len(j.shards))
	for _, shard := range j.shards {
		select {
		case j.srv.queue <- task{j: j, shard: shard}:
		case <-j.ctx.Done():
			j.pending.Done()
		}
	}
	j.pending.Wait()

	if err := j.firstErr(); err != nil {
		j.finish(err)
		return
	}
	_, err := j.plan.Tables(j.ctx, func(t *experiments.Table) {
		var buf bytes.Buffer
		t.Render(&buf)
		j.mu.Lock()
		j.tables = append(j.tables, RenderedTable{ID: t.ID, Text: buf.String()})
		j.mu.Unlock()
	})
	j.finish(err)
}

// release drops the job's runner, plan and shards once it has run: the
// job table keeps every finished job, a runner holds its memoized
// results, and a plan holds its runner and every planned spec. Every
// shard task has finished by then, and the snapshot reads shardCount,
// not the shards.
func (j *job) release() {
	j.mu.Lock()
	j.runner, j.plan, j.shards = nil, nil, nil
	j.mu.Unlock()
}

// onProgress is the job runner's progress callback: counters for the
// status endpoint, one published event for the stream. Runner
// callbacks are serialized, but the hub and counters take their own
// locks anyway since table capture runs on the assembly goroutine.
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

// recordErr keeps the job's defining error: the first one, except that
// a genuine failure displaces a routine cancellation (a sweep that
// broke and was then drained must report the break).
func (j *job) recordErr(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil || errors.Is(j.err, errs.ErrCancelled) && !errors.Is(err, errs.ErrCancelled) {
		j.err = err
	}
}

func (j *job) firstErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
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
	if err == nil {
		err = j.firstErr()
	}
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
		Shards:     j.shardCount,
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
// bound to the daemon's store, so identical specs — within the batch,
// across batches, across daemons sharing a store directory — evaluate
// once. Shutdown cancels in-flight batches through the job context,
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
	runner := experiments.NewRunner(experiments.QuickScale())
	runner.Store = s.store
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
