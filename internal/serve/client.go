package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"wsrs"
	"wsrs/internal/otrace"
)

// Client is a small job-API client: submit, poll, fetch results. It
// is what the fleet coordinator, the benchmark and the end-to-end
// tests drive, so the benchmark's numbers measure exactly the path a
// real consumer takes.
type Client struct {
	// Base is the daemon address, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the transport (nil selects http.DefaultClient).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// newRequest builds one API request, injecting the trace context
// carried by ctx (otrace.ContextWith) into the propagation headers —
// every hop a coordinator takes on behalf of a traced cell carries the
// cell's trace, so the backend's spans stitch under it.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	otrace.Inject(otrace.FromContext(ctx), req.Header)
	return req, nil
}

// APIError is a non-2xx job-API response: the status code and the
// decoded body.
type APIError struct {
	Status int
	Body   string
	// RetryAfter carries the 429 backoff hint in seconds (0 = none).
	RetryAfter int
	// Envelope is the decoded ErrorEnvelope when the body parsed as
	// one (nil otherwise) — carrying the origin server's trace_id and
	// member identity.
	Envelope *ErrorEnvelope
}

func (e *APIError) Error() string {
	return fmt.Sprintf("job API: HTTP %d: %s", e.Status, strings.TrimSpace(e.Body))
}

func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	e := &APIError{Status: resp.StatusCode, Body: string(body)}
	fmt.Sscanf(resp.Header.Get("Retry-After"), "%d", &e.RetryAfter)
	var env ErrorEnvelope
	if json.Unmarshal(body, &env) == nil && env.Msg != "" {
		e.Envelope = &env
	}
	return e
}

// do sends one request — its body, when non-nil, encoded as JSON — and
// returns the response when the status is want; any other status
// becomes an *APIError. The caller closes the response body.
func (c *Client) do(ctx context.Context, method, path string, body any, want int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	hreq, err := c.newRequest(ctx, method, path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// call sends one request and decodes the want-status response into out
// (nil drains it).
func (c *Client) call(ctx context.Context, method, path string, body any, want int, out any) error {
	resp, err := c.do(ctx, method, path, body, want)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // lets the connection be reused
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// getJSON fetches one endpoint and decodes its 200 body into v.
func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	return c.call(ctx, http.MethodGet, path, nil, http.StatusOK, v)
}

// raw fetches one endpoint's 200 body verbatim.
func (c *Client) raw(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// submit posts req to a kind's collection route and decodes the
// accepted (202) status.
func submit[S any](ctx context.Context, c *Client, route string, req any) (S, error) {
	var st S
	return st, c.call(ctx, http.MethodPost, route, req, http.StatusAccepted, &st)
}

// get fetches one record's status.
func get[S any](ctx context.Context, c *Client, path string) (S, error) {
	var st S
	return st, c.getJSON(ctx, path, &st)
}

// wait polls one record until state reports a terminal state. The
// poll interval adapts nothing fancy: a fixed short sleep, because the
// daemon also offers /events for push-style progress.
func wait[S any](ctx context.Context, c *Client, path string, poll time.Duration, state func(S) string) (S, error) {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	for {
		st, err := get[S](ctx, c, path)
		if err != nil {
			return st, err
		}
		switch state(st) {
		case StateDone, StateFailed, StateCanceled:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// follow reads a record's server-sent event stream, invoking fn for
// every decoded event until the record ends, the stream closes, or fn
// returns false.
func follow[E any](ctx context.Context, c *Client, path string, fn func(E) bool) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dec := newSSEDecoder(resp.Body)
	for {
		data, err := dec.next()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		var ev E
		if json.Unmarshal(data, &ev) != nil {
			continue
		}
		if !fn(ev) {
			return nil
		}
	}
}

// Submit posts one job and returns its accepted status (202).
func (c *Client) Submit(ctx context.Context, req *JobRequest) (JobStatus, error) {
	return submit[JobStatus](ctx, c, "/v1/jobs", req)
}

// Get fetches one job's status.
func (c *Client) Get(ctx context.Context, id string) (JobStatus, error) {
	return get[JobStatus](ctx, c, "/v1/jobs/"+id)
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, http.StatusOK, nil)
}

// Wait polls a job until it reaches a terminal state.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	return wait(ctx, c, "/v1/jobs/"+id, poll, func(st JobStatus) string { return st.State })
}

// Results fetches the raw per-cell wsrs.Result slice of a done job.
func (c *Client) Results(ctx context.Context, id string) ([]wsrs.Result, error) {
	var out []wsrs.Result
	return out, c.getJSON(ctx, "/v1/jobs/"+id+"/results", &out)
}

// RawResults fetches the /results body verbatim (the byte-identity
// test compares it against a locally encoded RunGrid run).
func (c *Client) RawResults(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, "/v1/jobs/"+id+"/results")
}

// FetchCache asks the daemon's content-addressed cache for one digest
// (GET /v1/cache/{digest}). ok=false covers both a 404 and any
// transport failure — a peer-cache miss is never an error.
func (c *Client) FetchCache(ctx context.Context, digest string) (wsrs.Result, bool) {
	var res wsrs.Result
	if err := c.getJSON(ctx, "/v1/cache/"+digest, &res); err != nil {
		return wsrs.Result{}, false
	}
	return res, true
}

// Ready probes GET /readyz: nil when the daemon accepts new jobs, an
// *APIError (503 while draining) otherwise.
func (c *Client) Ready(ctx context.Context) error {
	return c.call(ctx, http.MethodGet, "/readyz", nil, http.StatusOK, nil)
}

// WaitReady polls /readyz until the daemon is up and accepting jobs or
// ctx expires — what a load generator runs before opening load, so a
// daemon mid-start or mid-drain is never mistaken for a broken one.
func (c *Client) WaitReady(ctx context.Context, poll time.Duration) error {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		err := c.Ready(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("daemon not ready: %w (last probe: %v)", ctx.Err(), err)
		case <-time.After(poll):
		}
	}
}

// Trace fetches the span document of one job (GET /v1/jobs/{id}/trace).
func (c *Client) Trace(ctx context.Context, id string) (otrace.Document, error) {
	var doc otrace.Document
	return doc, c.getJSON(ctx, "/v1/jobs/"+id+"/trace", &doc)
}

// TraceByID fetches the daemon's span document for one trace ID
// (GET /v1/traces/{trace}) — the member-side fetch of fleet trace
// stitching.
func (c *Client) TraceByID(ctx context.Context, traceID string) (otrace.Document, error) {
	var doc otrace.Document
	return doc, c.getJSON(ctx, "/v1/traces/"+traceID, &doc)
}

// Phases fetches the phase samples appended since the cursor; feed
// PhasePage.Next back in to read incrementally.
func (c *Client) Phases(ctx context.Context, since uint64) (PhasePage, error) {
	var page PhasePage
	return page, c.getJSON(ctx, fmt.Sprintf("/v1/phases?since=%d", since), &page)
}

// RawMetrics fetches the daemon's Prometheus exposition verbatim —
// what a federating coordinator relabels and merges.
func (c *Client) RawMetrics(ctx context.Context) ([]byte, error) {
	return c.raw(ctx, "/metrics")
}

// Metrics scrapes the daemon's Prometheus exposition into a
// name -> value map (histogram series are skipped). Good enough for
// asserting counters in tests, CI and the load report.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	body, err := c.RawMetrics(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err == nil {
			out[line[:sp]] = v
		}
	}
	return out, nil
}

// Events follows a job's server-sent event stream, invoking fn for
// every decoded event until the job ends, the stream closes, or fn
// returns false.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) bool) error {
	return follow(ctx, c, "/v1/jobs/"+id+"/events", fn)
}

// SubmitExplore posts one design-space exploration and returns its
// accepted status (202).
func (c *Client) SubmitExplore(ctx context.Context, req *ExploreRequest) (ExploreStatus, error) {
	return submit[ExploreStatus](ctx, c, "/v1/explore", req)
}

// WaitExplore polls an explore job until it reaches a terminal state.
func (c *Client) WaitExplore(ctx context.Context, id string, poll time.Duration) (ExploreStatus, error) {
	return wait(ctx, c, "/v1/explore/"+id, poll, func(st ExploreStatus) string { return st.State })
}

// Frontier fetches a done explore job's frontier document verbatim —
// the deterministic bytes explore.Document.Render produced.
func (c *Client) Frontier(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, "/v1/explore/"+id+"/frontier")
}

// CancelExplore requests cancellation of an explore job.
func (c *Client) CancelExplore(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/v1/explore/"+id, nil, http.StatusOK, nil)
}

// ExploreEvents follows an explore job's server-sent event stream,
// invoking fn for every decoded event until the job ends, the stream
// closes, or fn returns false.
func (c *Client) ExploreEvents(ctx context.Context, id string, fn func(ExploreEvent) bool) error {
	return follow(ctx, c, "/v1/explore/"+id+"/events", fn)
}

// sseDecoder extracts the data payloads of a text/event-stream body.
type sseDecoder struct {
	r   *bufio.Reader
	buf bytes.Buffer
}

func newSSEDecoder(r io.Reader) *sseDecoder {
	return &sseDecoder{r: bufio.NewReader(r)}
}

// next returns the data of the next event (joining multi-line data
// fields per the SSE format).
func (d *sseDecoder) next() ([]byte, error) {
	d.buf.Reset()
	for {
		line, err := d.r.ReadString('\n')
		line = strings.TrimRight(line, "\r\n")
		if err != nil {
			if d.buf.Len() > 0 {
				return d.buf.Bytes(), nil
			}
			return nil, err
		}
		if line == "" {
			if d.buf.Len() > 0 {
				return d.buf.Bytes(), nil
			}
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if d.buf.Len() > 0 {
				d.buf.WriteByte('\n')
			}
			d.buf.WriteString(data)
		}
	}
}
