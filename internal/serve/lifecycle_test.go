package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"wsrs"
	"wsrs/internal/explore"
	"wsrs/internal/telemetry"
)

// TestInvalidRequestsCountOnce sends every kind of 400 to both submit
// routes and requires each to bump its own kind's invalid-outcome
// counter exactly once and the other kind's not at all.
func TestInvalidRequestsCountOnce(t *testing.T) {
	srv, client, ts := testServer(t, Options{Workers: 1, MaxMeasure: 50_000})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	encode := func(edit func(*ExploreRequest)) string {
		req := smallExplore()
		edit(req)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	cases := []struct {
		name, route, body, field, family string
	}{
		{"job body", "/v1/jobs", `{"cells":`, "body", mJobs},
		{"job validation", "/v1/jobs", `{"cells":[{"kernel":"nope","config":"RR 256"}]}`, "cells[0].kernel", mJobs},
		{"job measure cap", "/v1/jobs", `{"cells":[{"kernel":"gzip","config":"RR 256"}],"measure":60001}`, "cells[0].measure", mJobs},
		{"explore body", "/v1/explore", `{"space":`, "body", mExploreJobs},
		{"explore validation", "/v1/explore", encode(func(r *ExploreRequest) { r.Strategy = "psychic" }), "strategy", mExploreJobs},
		{"explore measure cap", "/v1/explore", encode(func(r *ExploreRequest) { r.Measure = 60_001 }), "measure_insts", mExploreJobs},
		{"explore zero points", "/v1/explore", encode(func(r *ExploreRequest) {
			r.Space.Clusters, r.Space.Policies = []int{2}, []string{"RC"} // RC steers only 4 clusters
		}), "space", mExploreJobs},
	}
	invalid := telemetry.Labels("outcome", "invalid")
	for _, tc := range cases {
		before, err := client.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+tc.route, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var env ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || env.Field != tc.field {
			t.Fatalf("%s: HTTP %d field %q (decode err %v), want 400 naming %q",
				tc.name, resp.StatusCode, env.Field, err, tc.field)
		}
		after, err := client.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, family := range []string{mJobs, mExploreJobs} {
			want := 0.0
			if family == tc.family {
				want = 1
			}
			if got := after[family+invalid] - before[family+invalid]; got != want {
				t.Errorf("%s: %s%s moved by %v, want %v", tc.name, family, invalid, got, want)
			}
		}
	}
}

// kindCase drives one job kind through the surfaces both kinds share.
type kindCase struct {
	name  string
	root  string // root span name
	route string // the kind's collection route
	other string // the other kind's collection route
	// submit posts a quick record, or with long one that runs until
	// canceled, returning its ID and trace ID.
	submit func(c *Client, long bool) (id, trace string, err error)
	wait   func(c *Client, id string) (state string, err error)
	// batches marks the kind whose cells run as unlisted job-shaped
	// batch records.
	batches bool
}

func kindCases() []kindCase {
	ctx := context.Background()
	return []kindCase{
		{
			name: "grid", root: "job", route: "/v1/jobs", other: "/v1/explore",
			submit: func(c *Client, long bool) (string, string, error) {
				req := &JobRequest{
					Cells:  []CellSpec{{Kernel: "gzip", Config: string(wsrs.ConfWSRSRC512)}},
					Warmup: testWarmup, Measure: testMeasure,
				}
				if long {
					req.Cells[0].Config, req.Measure = string(wsrs.ConfRR256), 500_000_000
				}
				st, err := c.Submit(ctx, req)
				return st.ID, st.TraceID, err
			},
			wait: func(c *Client, id string) (string, error) {
				st, err := c.Wait(ctx, id, time.Millisecond)
				return st.State, err
			},
		},
		{
			name: "explore", root: "explore", route: "/v1/explore", other: "/v1/jobs", batches: true,
			submit: func(c *Client, long bool) (string, string, error) {
				req := smallExplore()
				if long {
					// One point, so the run occupies one worker.
					req.Space.Clusters, req.Space.Specialize = []int{2}, []string{explore.SpecNone}
					req.Measure = 500_000_000
				}
				st, err := c.SubmitExplore(ctx, req)
				return st.ID, st.TraceID, err
			},
			wait: func(c *Client, id string) (string, error) {
				st, err := c.WaitExplore(ctx, id, time.Millisecond)
				return st.State, err
			},
		},
	}
}

// httpJSON sends one bodyless request and decodes a JSON response.
func httpJSON(t *testing.T, method, url string, v any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestSharedLifecycle runs both job kinds through the history table,
// routing, cancel, event-stream and trace behaviour they share.
func TestSharedLifecycle(t *testing.T) {
	for _, k := range kindCases() {
		t.Run(k.name, func(t *testing.T) {
			srv, client, ts := testServer(t, Options{Workers: 2, KeepJobs: 2})
			defer srv.Drain(context.Background())
			ctx := context.Background()
			must := func(id, trace string, err error) (string, string) {
				t.Helper()
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
				return id, trace
			}
			settle := func(id, want string) {
				t.Helper()
				if state, err := k.wait(client, id); err != nil || state != want {
					t.Fatalf("%s settled %q (err %v), want %q", id, state, err, want)
				}
			}
			listed := func() []string {
				t.Helper()
				var recs []struct{ ID string }
				if code := httpJSON(t, http.MethodGet, ts.URL+k.route, &recs); code != http.StatusOK {
					t.Fatalf("list: HTTP %d", code)
				}
				var ids []string
				for _, r := range recs {
					ids = append(ids, r.ID)
				}
				return ids
			}

			// A live oldest record holds the history past KeepJobs...
			live, _ := must(k.submit(client, true))
			q1, cold := must(k.submit(client, false))
			settle(q1, StateDone)
			q2, _ := must(k.submit(client, false))
			settle(q2, StateDone)
			if got := listed(); !slices.Equal(got, []string{live, q1, q2}) {
				t.Fatalf("history with a live oldest record = %v, want %v", got, []string{live, q1, q2})
			}
			// ...and once it settles, the oldest terminal records go.
			if code := httpJSON(t, http.MethodDelete, ts.URL+k.route+"/"+live, nil); code != http.StatusOK {
				t.Fatalf("DELETE live record: HTTP %d", code)
			}
			settle(live, StateCanceled)
			q3, _ := must(k.submit(client, false))
			settle(q3, StateDone)
			if got := listed(); !slices.Equal(got, []string{q2, q3}) {
				t.Fatalf("history after eviction = %v, want %v", got, []string{q2, q3})
			}
			for _, id := range []string{live, q1} {
				if code := httpJSON(t, http.MethodGet, ts.URL+k.route+"/"+id, nil); code != http.StatusNotFound {
					t.Errorf("evicted %s: HTTP %d, want 404", id, code)
				}
			}

			// An ID of one kind is unknown to the other kind's routes.
			if code := httpJSON(t, http.MethodGet, ts.URL+k.other+"/"+q3, nil); code != http.StatusNotFound {
				t.Errorf("GET %s/%s: HTTP %d, want 404", k.other, q3, code)
			}

			// DELETE on a terminal record answers 200 and leaves its state.
			var st struct{ State string }
			if code := httpJSON(t, http.MethodDelete, ts.URL+k.route+"/"+q3, &st); code != http.StatusOK || st.State != StateDone {
				t.Errorf("DELETE terminal record: HTTP %d state %q, want 200 and %q", code, st.State, StateDone)
			}
			settle(q3, StateDone)

			// A late attach replays the whole log and ends after the
			// job event.
			replay := func() []string {
				t.Helper()
				var types []string
				err := follow(ctx, client, k.route+"/"+q3+"/events", func(ev struct{ Type string }) bool {
					types = append(types, ev.Type)
					return true
				})
				if err != nil {
					t.Fatalf("events: %v", err)
				}
				return types
			}
			first := replay()
			if n := len(first); n < 2 || first[n-1] != "job" || slices.Index(first, "job") != n-1 {
				t.Fatalf("late replay = %v, want the log ending in one job event", first)
			}
			if again := replay(); !slices.Equal(again, first) {
				t.Fatalf("second late replay = %v, want %v", again, first)
			}

			// Every span of a cold record's trace has its parent in the
			// trace; the root's parent is the submit http span, and every
			// cell hangs off the root.
			doc, err := client.TraceByID(ctx, cold)
			if err != nil {
				t.Fatal(err)
			}
			byID := map[string]string{}
			for _, sp := range doc.Spans {
				byID[sp.SpanID] = sp.Name
			}
			names := map[string]int{}
			for _, sp := range doc.Spans {
				names[sp.Name]++
				parent, ok := byID[sp.ParentID]
				switch {
				case sp.ParentID != "" && !ok:
					t.Errorf("span %q parent %s not in the trace", sp.Name, sp.ParentID)
				case sp.Name == k.root && parent != "http":
					t.Errorf("root span parented to %q, want the submit http span", parent)
				case sp.Name == "cell" && parent != k.root:
					t.Errorf("cell span parented to %q, want the %s root span", parent, k.root)
				}
			}
			for _, name := range []string{k.root, "cell", "cache.lookup", "queue.wait", "simulate", "grid.cell"} {
				if names[name] == 0 {
					t.Errorf("cold trace has no %q span (have %v)", name, names)
				}
			}

			// Exploration batches never surface as grid jobs.
			if k.batches {
				var jobs, slow []any
				httpJSON(t, http.MethodGet, ts.URL+"/v1/jobs", &jobs)
				httpJSON(t, http.MethodGet, ts.URL+"/debug/slow", &slow)
				if len(jobs) != 0 || len(slow) != 0 {
					t.Errorf("batch records surfaced: %d in /v1/jobs, %d in /debug/slow", len(jobs), len(slow))
				}
			}
		})
	}
}
