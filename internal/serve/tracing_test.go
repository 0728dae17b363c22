package serve

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"wsrs"
)

var hexTraceID = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestJobTraceEndpoint walks the whole tracing contract for one job:
// the status carries the trace ID, every lifecycle phase appears as a
// span of that trace, parent links resolve within the document, and
// the simulate spans connect down to the grid.cell spans emitted by
// the RunGrid observer.
func TestJobTraceEndpoint(t *testing.T) {
	srv, client, ts := testServer(t, Options{Workers: 2})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	final := submitWait(t, client, &JobRequest{
		Cells: []CellSpec{
			{Kernel: "gzip", Config: string(wsrs.ConfRR256)},
			{Kernel: "mcf", Config: string(wsrs.ConfWSRSRC512)},
		},
		Warmup: testWarmup, Measure: testMeasure, Label: "traced",
	})
	if final.State != StateDone {
		t.Fatalf("job state %s (%s)", final.State, final.Error)
	}
	if !hexTraceID.MatchString(final.TraceID) {
		t.Fatalf("job status trace_id %q is not 16 hex digits", final.TraceID)
	}

	doc, err := client.Trace(ctx, final.ID)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if doc.JobID != final.ID || doc.TraceID != final.TraceID || doc.Label != "traced" {
		t.Fatalf("document identity = %s/%s/%q, want %s/%s/traced",
			doc.JobID, doc.TraceID, doc.Label, final.ID, final.TraceID)
	}

	names := map[string]int{}
	ids := map[string]bool{}
	for _, sp := range doc.Spans {
		names[sp.Name]++
		ids[sp.SpanID] = true
	}
	want := map[string]int{
		"job": 1, "admission": 1, "cell": 2,
		"cache.lookup": 2, "queue.wait": 2, "simulate": 2, "grid.cell": 2,
	}
	for name, n := range want {
		if names[name] != n {
			t.Errorf("trace holds %d %q spans, want %d (all: %v)", names[name], name, n, names)
		}
	}
	for _, sp := range doc.Spans {
		if sp.ParentID != "" && !ids[sp.ParentID] {
			t.Errorf("span %q parent %s not in document", sp.Name, sp.ParentID)
		}
	}

	// The trace ID also rides every response as a header.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h := resp.Header.Get("X-Trace-Id"); !hexTraceID.MatchString(h) {
		t.Errorf("X-Trace-Id header = %q, want 16 hex digits", h)
	}
}

// TestJobTraceChrome checks the Perfetto rendering: well-formed
// trace-event JSON with the service and worker-pool process tracks.
func TestJobTraceChrome(t *testing.T) {
	srv, client, ts := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())

	final := submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: testWarmup, Measure: testMeasure,
	})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + final.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	slices, pids := 0, map[int]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			slices++
			pids[ev.Pid] = true
			if ev.Dur <= 0 {
				t.Errorf("slice %q has non-positive dur %g", ev.Name, ev.Dur)
			}
			if tid, ok := ev.Args["trace_id"].(string); !ok || !hexTraceID.MatchString(tid) {
				t.Errorf("slice %q carries trace_id %v", ev.Name, ev.Args["trace_id"])
			}
		}
	}
	if slices == 0 {
		t.Fatal("chrome trace has no slices")
	}
	if !pids[1] || !pids[2] {
		t.Errorf("slices on pids %v, want both the service (1) and worker (2) tracks", pids)
	}
}

// TestCoalescedWaiterLinkage pins the cross-trace linkage: a job that
// piggybacks on another job's in-flight simulation records a
// coalesce.wait span pointing at the leader's trace, and the trace
// endpoint follows that link so the waiter's document still contains
// the simulate span that actually resolved its cell.
func TestCoalescedWaiterLinkage(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	blocker, err := client.Submit(ctx, &JobRequest{
		Cells:  []CellSpec{{Kernel: "mcf", Config: string(wsrs.ConfRR256)}},
		Warmup: 2_000, Measure: 150_000, Label: "blocker",
	})
	if err != nil {
		t.Fatal(err)
	}
	req := &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfWSRSRC512)}},
		Warmup: testWarmup, Measure: testMeasure,
	}
	a, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	var waiter JobStatus
	for _, id := range []string{a.ID, b.ID} {
		st, err := client.Wait(ctx, id, time.Millisecond)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s state %s (%s)", id, st.State, st.Error)
		}
		if st.Cells[0].Cache == CacheCoalesced {
			waiter = st
		}
	}
	if _, err := client.Wait(ctx, blocker.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if waiter.ID == "" {
		t.Skip("no coalesced waiter this run (cache resolved first)")
	}

	doc, err := client.Trace(ctx, waiter.ID)
	if err != nil {
		t.Fatalf("Trace(%s): %v", waiter.ID, err)
	}
	var linkTrace string
	for _, sp := range doc.Spans {
		if sp.Name != "coalesce.wait" {
			continue
		}
		lt, ok := sp.Attrs["link_trace"].(string)
		if !ok || !hexTraceID.MatchString(lt) {
			t.Fatalf("coalesce.wait span carries link_trace %v", sp.Attrs["link_trace"])
		}
		if ls, ok := sp.Attrs["link_span"].(string); !ok || !hexTraceID.MatchString(ls) {
			t.Fatalf("coalesce.wait span carries link_span %v", sp.Attrs["link_span"])
		}
		linkTrace = lt
	}
	if linkTrace == "" {
		t.Fatal("waiter trace has no coalesce.wait span")
	}
	if linkTrace == doc.TraceID {
		t.Fatal("link_trace points at the waiter's own trace")
	}
	// The one-hop follow pulled the leader's spans into the document:
	// the simulate span that did the work belongs to the linked trace.
	found := false
	for _, sp := range doc.Spans {
		if sp.Name == "simulate" && sp.TraceID == linkTrace {
			found = true
		}
	}
	if !found {
		t.Fatal("document does not contain the linked leader's simulate span")
	}
}

// TestReadyzDrain checks the readiness contract: /readyz mirrors
// admission (200 while accepting, 503 once draining) while /healthz
// stays 200 throughout — liveness is not readiness.
func TestReadyzDrain(t *testing.T) {
	srv, client, ts := testServer(t, Options{Workers: 1})
	ctx := context.Background()

	if err := client.Ready(ctx); err != nil {
		t.Fatalf("Ready before drain: %v", err)
	}
	if err := client.WaitReady(ctx, time.Millisecond); err != nil {
		t.Fatalf("WaitReady before drain: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: HTTP %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: HTTP %d, want 200 (liveness)", resp.StatusCode)
	}
}

// TestErrorEnvelopeTraceID checks that every error body is the uniform
// envelope carrying the request's trace ID, matching the X-Trace-Id
// header — the handle that connects a failed call to its log lines.
func TestErrorEnvelopeTraceID(t *testing.T) {
	srv, _, ts := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())

	decode := func(resp *http.Response) map[string]any {
		t.Helper()
		defer resp.Body.Close()
		var env map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("error body not valid JSON: %v", err)
		}
		msg, _ := env["error"].(string)
		if msg == "" {
			t.Fatalf("error body has no \"error\" message: %v", env)
		}
		tid, _ := env["trace_id"].(string)
		if !hexTraceID.MatchString(tid) {
			t.Fatalf("error body trace_id = %q, want 16 hex digits: %v", tid, env)
		}
		if h := resp.Header.Get("X-Trace-Id"); h != tid {
			t.Fatalf("header trace %q != body trace %q", h, tid)
		}
		return env
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/j-404404")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
	decode(resp)

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"cells":[{"kernel":"nope","config":"RR 256"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kernel: HTTP %d, want 400", resp.StatusCode)
	}
	env := decode(resp)
	if env["field"] != "cells[0].kernel" {
		t.Fatalf("validation envelope field = %v, want cells[0].kernel", env["field"])
	}
}

// TestPhasesCursor drives the /v1/phases monotone-cursor protocol the
// way the benchmark does: capture the cursor, run work, read exactly
// the new samples, and observe an empty page once caught up.
func TestPhasesCursor(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	// since >= total returns just the cursor, no samples.
	start, err := client.Phases(ctx, ^uint64(0))
	if err != nil {
		t.Fatalf("Phases: %v", err)
	}
	if len(start.Samples) != 0 {
		t.Fatalf("cursor probe returned %d samples", len(start.Samples))
	}

	final := submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: testWarmup, Measure: testMeasure,
	})
	if final.State != StateDone {
		t.Fatalf("job state %s", final.State)
	}

	page, err := client.Phases(ctx, start.Next)
	if err != nil {
		t.Fatalf("Phases(since=%d): %v", start.Next, err)
	}
	seen := map[string]int{}
	for _, s := range page.Samples {
		if s.Us < 0 {
			t.Errorf("negative phase sample %+v", s)
		}
		seen[s.Phase]++
	}
	for _, phase := range []string{PhaseQueue, PhaseCache, PhaseSimulate, PhaseTotal} {
		if seen[phase] == 0 {
			t.Errorf("no %q sample after a cache-cold job (have %v)", phase, seen)
		}
	}
	if page.Next <= start.Next {
		t.Fatalf("cursor did not advance: %d -> %d", start.Next, page.Next)
	}
	caught, err := client.Phases(ctx, page.Next)
	if err != nil {
		t.Fatal(err)
	}
	if len(caught.Samples) != 0 || caught.Next != page.Next {
		t.Fatalf("caught-up page = %d samples, next %d; want 0 and %d",
			len(caught.Samples), caught.Next, page.Next)
	}
}

// TestDebugSlow requires a finished job to appear in /debug/slow with
// its phase decomposition.
func TestDebugSlow(t *testing.T) {
	srv, client, ts := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())

	final := submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: testWarmup, Measure: testMeasure, Label: "slowcheck",
	})
	resp, err := http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var slow []SlowJob
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatalf("/debug/slow not valid JSON: %v", err)
	}
	for _, sj := range slow {
		if sj.JobID != final.ID {
			continue
		}
		if sj.TraceID != final.TraceID || sj.Label != "slowcheck" || sj.State != string(StateDone) {
			t.Fatalf("slow entry = %+v", sj)
		}
		if sj.TotalMs <= 0 || sj.PhaseMs[PhaseTotal] <= 0 {
			t.Fatalf("slow entry has no timings: %+v", sj)
		}
		return
	}
	t.Fatalf("job %s not in /debug/slow (%d entries)", final.ID, len(slow))
}

// TestStructuredLogCarriesTrace submits a job against a JSON logger
// and requires the access and lifecycle lines to carry the trace ID
// the API returned — the grep path from a slow request to its logs.
func TestStructuredLogCarriesTrace(t *testing.T) {
	var buf syncBuffer
	srv, client, _ := testServer(t, Options{Workers: 1, Logger: slog.New(NewLogHandler(&buf, "json"))})
	defer srv.Drain(context.Background())

	final := submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: testWarmup, Measure: testMeasure,
	})
	logs := buf.String()
	for _, want := range []string{`"msg":"job accepted"`, `"msg":"job finished"`, `"trace_id":"` + final.TraceID + `"`, `"job_id":"` + final.ID + `"`} {
		if !strings.Contains(logs, want) {
			t.Errorf("structured log missing %s\nlogs:\n%s", want, logs)
		}
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTracerReset pins the arena contract on the server's recorder:
// Reset drops the spans but the daemon keeps tracing into the same
// ring.
func TestTracerReset(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1, TraceSpans: 256})
	defer srv.Drain(context.Background())

	submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256)}},
		Warmup: testWarmup, Measure: testMeasure,
	})
	if srv.Tracer().Len() == 0 {
		t.Fatal("no spans recorded")
	}
	srv.Tracer().Reset()
	if srv.Tracer().Len() != 0 || srv.Tracer().Cap() != 256 {
		t.Fatalf("after Reset: len %d cap %d, want 0/256", srv.Tracer().Len(), srv.Tracer().Cap())
	}
	final := submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfRR256), Seed: 9}},
		Warmup: testWarmup, Measure: testMeasure,
	})
	doc, err := client.Trace(context.Background(), final.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("no spans for a job traced after Reset")
	}
}
