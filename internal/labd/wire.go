package labd

// Wire types of the sweep-service API (DESIGN.md §11). The daemon and
// its client share these structs, so the two halves of the protocol
// cannot drift; impress.go aliases the caller-facing ones into the
// public API.

import (
	"impress/internal/resultstore"
	"impress/internal/security"
)

// SweepRequest is the POST /v1/sweeps body: the same selection the
// impress-experiments CLI takes, submitted over the wire. The zero
// value is the full quick-scale sweep.
type SweepRequest struct {
	// Scale names the simulation scale: quick (default), standard, full.
	Scale string `json:"scale,omitempty"`
	// Only restricts the sweep to these experiment IDs (default: all).
	Only []string `json:"only,omitempty"`
	// Analytical restricts the sweep to the simulation-free experiments.
	Analytical bool `json:"analytical,omitempty"`
}

// JobState enumerates a job's lifecycle states.
type JobState string

// The job lifecycle: Queued -> Running -> one of the three terminal
// states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is the wire snapshot of one submitted sweep (GET /v1/jobs/{id}).
type Job struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	Scale      string   `json:"scale"`
	Only       []string `json:"only,omitempty"`
	Analytical bool     `json:"analytical,omitempty"`
	// Specs is the size of the job's deduplicated simulation universe.
	Specs int `json:"specs"`
	// Started/CacheHits/Simulated mirror the progress-stream invariant:
	// when the job completes, Started == CacheHits + Simulated. A fully
	// warm resubmit reports Simulated == 0.
	Started   int64 `json:"started"`
	CacheHits int64 `json:"cacheHits"`
	Simulated int64 `json:"simulated"`
	// Tables lists the experiment IDs rendered so far (paper order).
	Tables []string `json:"tables,omitempty"`
	// Error and ErrorKind describe a failed or cancelled job.
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"errorKind,omitempty"`
}

// Event is one NDJSON line on GET /v1/jobs/{id}/events: the Lab's
// progress events serialized to the wire, plus job state transitions
// and the per-subscriber lagged marker.
type Event struct {
	// Seq is the event's position in the job's log; resume a broken
	// stream with ?from=<lastSeq+1>. Synthetic per-subscriber events
	// (lagged) carry Seq -1: they are not part of the log.
	Seq int64 `json:"seq"`
	// Kind is "state", "lagged", or a progress kind: "started",
	// "cache-hit", "finished", "table".
	Kind string `json:"kind"`
	// Spec/Key/Cycles/Table carry the progress payload (see
	// impress.Progress).
	Spec   string `json:"spec,omitempty"`
	Key    string `json:"key,omitempty"`
	Cycles int64  `json:"cycles,omitempty"`
	Table  string `json:"table,omitempty"`
	// State is the job's new state (kind "state" only).
	State JobState `json:"state,omitempty"`
	// Dropped counts the events this subscriber missed because its
	// buffer was full (kind "lagged" only). The sweep never waits for a
	// slow consumer; it drops and flags instead.
	Dropped int64 `json:"dropped,omitempty"`
	// Error describes the terminal state (kind "state", failed or
	// cancelled jobs).
	Error string `json:"error,omitempty"`
}

// The non-progress event kinds.
const (
	KindState  = "state"
	KindLagged = "lagged"
)

// RenderedTable is one assembled experiment table (GET
// /v1/jobs/{id}/tables): Text is the byte-exact Render output, so a
// client can write golden-comparable files without re-deriving
// anything.
type RenderedTable struct {
	ID   string `json:"id"`
	Text string `json:"text"`
}

// TablesResponse is the GET /v1/jobs/{id}/tables body.
type TablesResponse struct {
	State  JobState        `json:"state"`
	Tables []RenderedTable `json:"tables"`
}

// AttackRequest is the POST /v1/attacks body: a batch of
// security-harness evaluations, each fully self-describing (pattern,
// tracker, design point, seed), so the daemon needs no job state — it
// evaluates synchronously against its shared result store. This is how
// a synthesis search runs its fitness function on a remote daemon:
// identical specs are store hits, so a resubmitted or resumed search
// simulates only what the fleet has never seen.
type AttackRequest struct {
	Specs []resultstore.AttackSpec `json:"specs"`
}

// AttackResponse is the POST /v1/attacks reply: one result per
// requested spec, in request order.
type AttackResponse struct {
	Results []security.Result `json:"results"`
	// Simulated counts the specs this request actually ran through the
	// harness; the rest were served from the daemon's store. A fully
	// warm batch reports 0.
	Simulated int64 `json:"simulated"`
}

// errorBody is the JSON body of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	// Kind classifies the failure for client-side errors.Is matching:
	// bad-spec, unknown-workload, cancelled, or internal.
	Kind string `json:"kind"`
}

// The wire error kinds, mapping the errs taxonomy across the HTTP
// boundary.
const (
	kindBadSpec         = "bad-spec"
	kindUnknownWorkload = "unknown-workload"
	kindCancelled       = "cancelled"
	kindInternal        = "internal"
)

// Health is the GET /v1/healthz body.
type Health struct {
	OK bool `json:"ok"`
	// Draining is true once shutdown has begun: submissions are refused
	// with 503 while in-flight jobs drain.
	Draining bool `json:"draining"`
	Jobs     int  `json:"jobs"`
}
