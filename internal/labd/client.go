package labd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"impress/internal/errs"
	"impress/internal/resultstore"
	"impress/internal/security"
)

// Client talks to an impress-labd daemon. Errors reconstruct the errs
// taxonomy from the wire kinds, so errors.Is(err, impress.ErrBadSpec)
// works the same for a remote sweep as for a local one — the
// "same spec runs locally and on a fleet" contract extends to error
// handling.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a Client for the daemon at base (e.g.
// "http://127.0.0.1:8080"). The event stream is long-lived, so the
// client deliberately sets no request timeout; cancel the context
// instead.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
}

// wireError reconstructs a typed error from a non-2xx response body.
func wireError(status int, body errorBody) error {
	msg := body.Error
	if msg == "" {
		msg = fmt.Sprintf("HTTP %d", status)
	}
	switch body.Kind {
	case kindBadSpec:
		return fmt.Errorf("labd: %w: %s", errs.ErrBadSpec, msg)
	case kindUnknownWorkload:
		return fmt.Errorf("labd: %w: %s", errs.ErrUnknownWorkload, msg)
	case kindCancelled:
		return fmt.Errorf("labd: %w: %s", errs.ErrCancelled, msg)
	}
	return fmt.Errorf("labd: server error (HTTP %d): %s", status, msg)
}

// do issues one request and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var reqBody io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("labd: %w", err)
		}
		reqBody = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reqBody)
	if err != nil {
		return fmt.Errorf("labd: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("labd: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		return wireError(resp.StatusCode, eb)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("labd: decoding %s response: %w", path, err)
	}
	return nil
}

// Health fetches the daemon's health snapshot.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h)
	return h, err
}

// Submit enqueues a sweep and returns its accepted job snapshot.
// Invalid requests return errors matching errs.ErrBadSpec /
// errs.ErrUnknownWorkload exactly as a local run would.
func (c *Client) Submit(ctx context.Context, req SweepRequest) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &j)
	return j, err
}

// EvaluateAttacks submits a batch of security-harness evaluations to
// the daemon's synchronous POST /v1/attacks endpoint and returns the
// results in spec order. The signature matches synth.Evaluator, so a
// synthesis search plugs a remote daemon in as its fitness function
// unchanged — the daemon's store then makes the search resumable
// across client restarts for free.
func (c *Client) EvaluateAttacks(ctx context.Context, specs []resultstore.AttackSpec) ([]security.Result, error) {
	var resp AttackResponse
	if err := c.do(ctx, http.MethodPost, "/v1/attacks", AttackRequest{Specs: specs}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(specs) {
		return nil, fmt.Errorf("labd: attack response carries %d results for %d specs", len(resp.Results), len(specs))
	}
	return resp.Results, nil
}

// Job fetches one job's snapshot.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &j)
	return j, err
}

// Jobs lists every job in submission order.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var js []Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &js)
	return js, err
}

// Tables fetches the job's rendered tables (byte-exact Render output).
func (c *Client) Tables(ctx context.Context, id string) (TablesResponse, error) {
	var tr TablesResponse
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/tables", nil, &tr)
	return tr, err
}

// Watch streams the job's events from sequence from, invoking fn for
// each (fn may be nil), until the job reaches a terminal state, then
// returns the final job snapshot. A broken stream returns an error;
// resume with from = last seen Seq + 1. Cancelling ctx aborts the
// watch with a taxonomy cancellation error.
func (c *Client) Watch(ctx context.Context, id string, from int64, fn func(Event)) (Job, error) {
	path := fmt.Sprintf("/v1/jobs/%s/events?from=%d", id, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return Job{}, fmt.Errorf("labd: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return Job{}, fmt.Errorf("labd: watch aborted: %w", errs.Cancelled(ctx.Err()))
		}
		return Job{}, fmt.Errorf("labd: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		return Job{}, wireError(resp.StatusCode, eb)
	}
	// The scanner starts small and grows to the 1 MiB line cap only
	// for a line that needs it.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		e, err := parseEvent(line)
		if err != nil {
			return Job{}, fmt.Errorf("labd: malformed event %q: %w", line, err)
		}
		if fn != nil {
			fn(e)
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return Job{}, fmt.Errorf("labd: watch aborted: %w", errs.Cancelled(ctx.Err()))
		}
		return Job{}, fmt.Errorf("labd: event stream broke: %w", err)
	}
	// Stream end means the hub closed: the job is terminal. Fetch the
	// final snapshot.
	return c.Job(ctx, id)
}
