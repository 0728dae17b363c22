package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"wsrs/internal/explore"
)

// smallExplore is a four-point grid space sized for test speed: two
// cluster counts crossed with conventional vs WSRS register files.
func smallExplore() *ExploreRequest {
	return &ExploreRequest{
		Request: explore.Request{
			Space: explore.Space{
				Clusters:   []int{2, 4},
				Widths:     []int{2},
				Regs:       []int{512},
				IQSizes:    []int{16},
				ROBSizes:   []int{64},
				Specialize: []string{explore.SpecNone, explore.SpecWSRS},
				Policies:   []string{"RR"},
				Kernels:    []string{"gzip"},
			},
			Strategy: explore.StrategyGrid,
			Seed:     1,
			Warmup:   testWarmup,
			Measure:  testMeasure,
		},
		Label: "test",
	}
}

func submitWaitExplore(t *testing.T, c *Client, req *ExploreRequest) ExploreStatus {
	t.Helper()
	ctx := context.Background()
	st, err := c.SubmitExplore(ctx, req)
	if err != nil {
		t.Fatalf("SubmitExplore: %v", err)
	}
	final, err := c.WaitExplore(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitExplore(%s): %v", st.ID, err)
	}
	return final
}

// TestExploreEndToEnd drives one exploration through the HTTP API and
// checks the served frontier document against a direct in-process
// explore.Run of the same request: the bytes must be identical, so the
// daemon's cache/singleflight/worker machinery is invisible in the
// artifact. It then replays the event stream and checks its shape.
func TestExploreEndToEnd(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 2})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	final := submitWaitExplore(t, client, smallExplore())
	if final.State != StateDone {
		t.Fatalf("explore state = %s (%s), want done", final.State, final.Error)
	}
	if final.Evaluated == 0 || final.FrontierSize == 0 {
		t.Fatalf("explore finished empty: %+v", final)
	}
	got, err := client.Frontier(ctx, final.ID)
	if err != nil {
		t.Fatalf("Frontier: %v", err)
	}
	var doc explore.Document
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("frontier is not an explore.Document: %v", err)
	}
	if doc.SpaceDigest != final.SpaceDigest {
		t.Fatalf("document space digest %s != status %s", doc.SpaceDigest, final.SpaceDigest)
	}
	if len(doc.Frontier) != final.FrontierSize || doc.Evaluated != final.Evaluated {
		t.Fatalf("document counters (%d evaluated, %d frontier) disagree with status (%d, %d)",
			doc.Evaluated, len(doc.Frontier), final.Evaluated, final.FrontierSize)
	}

	// Ground truth: the same request run in-process.
	req := smallExplore().Request
	req.Normalize()
	local, err := explore.Run(ctx, req, &explore.LocalEvaluator{Parallelism: 2}, nil)
	if err != nil {
		t.Fatalf("local explore.Run: %v", err)
	}
	want, err := local.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served frontier differs from the local run:\n srv: %.300s\nlocal: %.300s", got, want)
	}

	// The replayed event stream: phases in order starting at enumerate,
	// at least one progress tick, and a terminal job record.
	var phases []string
	var progress int
	var terminal *ExploreStatus
	err = client.ExploreEvents(ctx, final.ID, func(ev ExploreEvent) bool {
		switch ev.Type {
		case "phase":
			phases = append(phases, ev.Phase)
		case "progress":
			progress++
		case "job":
			terminal = ev.Job
		}
		return true
	})
	if err != nil {
		t.Fatalf("ExploreEvents: %v", err)
	}
	if len(phases) == 0 || phases[0] != "enumerate" {
		t.Fatalf("phases = %v, want to start with enumerate", phases)
	}
	if progress == 0 {
		t.Fatal("no progress events streamed")
	}
	if terminal == nil || terminal.State != StateDone {
		t.Fatalf("terminal job event = %+v, want done", terminal)
	}
}

// TestExploreRepeatedIsCachedAndByteIdentical reruns the same
// exploration: the second job must resolve its cells from the result
// cache (cache_hits counters move) and still serve byte-identical
// frontier bytes — the determinism contract across cache states.
func TestExploreRepeatedIsCachedAndByteIdentical(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 2})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	first := submitWaitExplore(t, client, smallExplore())
	if first.State != StateDone {
		t.Fatalf("first explore: %s (%s)", first.State, first.Error)
	}
	if first.CacheHits != 0 {
		t.Fatalf("cold run reported %d cache hits", first.CacheHits)
	}
	b1, err := client.Frontier(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}

	second := submitWaitExplore(t, client, smallExplore())
	if second.State != StateDone {
		t.Fatalf("second explore: %s (%s)", second.State, second.Error)
	}
	if second.CacheHits == 0 {
		t.Fatal("warm rerun hit the cache zero times")
	}
	b2, err := client.Frontier(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("repeated exploration served different frontier bytes")
	}
	waitCounter(t, client, mCacheHits, float64(second.CacheHits))
}

// TestExploreAndJobShareOneAddress submits a grid job for a point an
// exploration already evaluated — same configuration, mods, policy,
// seed and windows. Both job kinds address the simulation alike, so
// the job's cell is a cache hit and nothing simulates again.
func TestExploreAndJobShareOneAddress(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 2})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	req := smallExplore()
	x := submitWaitExplore(t, client, req)
	if x.State != StateDone {
		t.Fatalf("explore: %s (%s)", x.State, x.Error)
	}
	body, err := client.Frontier(ctx, x.ID)
	if err != nil {
		t.Fatal(err)
	}
	var doc explore.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Frontier) == 0 {
		t.Fatal("exploration evaluated no frontier point")
	}
	cell := explore.CellFor(doc.Frontier[0].Point, req.Space.Kernels[0])
	waitCounter(t, client, mSims, float64(x.Evaluated))
	before, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	job := submitWait(t, client, &JobRequest{
		Cells: []CellSpec{{Kernel: cell.Kernel, Config: string(cell.Config),
			Policy: cell.Policy, Mods: cell.Mods}},
		Warmup: req.Warmup, Measure: req.Measure, Seed: req.Seed,
	})
	if job.State != StateDone {
		t.Fatalf("job: %s (%s)", job.State, job.Error)
	}
	if got := job.Cells[0].Cache; got != CacheHit {
		t.Fatalf("job cell for an explored point: disposition %q, want %q", got, CacheHit)
	}
	after, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after[mSims] != before[mSims] {
		t.Fatalf("%s moved %v -> %v for an already simulated cell", mSims, before[mSims], after[mSims])
	}
}

// TestExploreValidation checks the structured 400s: a bad axis value
// and a bad strategy each come back as an ErrorEnvelope naming the
// offending field, with the valid set when the field is closed.
func TestExploreValidation(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	bad := smallExplore()
	bad.Space.Policies = []string{"PSYCHIC"}
	_, err := client.SubmitExplore(ctx, bad)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("bad policy: err = %v, want HTTP 400", err)
	}
	if apiErr.Envelope == nil || apiErr.Envelope.Field != "space.policies" {
		t.Fatalf("bad policy envelope = %+v, want field space.policies", apiErr.Envelope)
	}
	if len(apiErr.Envelope.Valid) == 0 {
		t.Fatal("bad policy envelope carries no valid set")
	}

	bad = smallExplore()
	bad.Strategy = "psychic"
	_, err = client.SubmitExplore(ctx, bad)
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("bad strategy: err = %v, want HTTP 400", err)
	}
	if apiErr.Envelope == nil || apiErr.Envelope.Field != "strategy" {
		t.Fatalf("bad strategy envelope = %+v, want field strategy", apiErr.Envelope)
	}
}

// TestExploreAdmission checks that a space whose evaluation batch can
// never fit the queue is refused up front with 429 and the queue cap
// in the envelope.
func TestExploreAdmission(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1, MaxQueuedCells: 1})
	defer srv.Drain(context.Background())

	_, err := client.SubmitExplore(context.Background(), smallExplore())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 429 {
		t.Fatalf("oversized space: err = %v, want HTTP 429", err)
	}
	if apiErr.Envelope == nil || apiErr.Envelope.QueueCap != 1 {
		t.Fatalf("429 envelope = %+v, want queue cap 1", apiErr.Envelope)
	}
	if apiErr.RetryAfter == 0 {
		t.Fatal("429 carried no Retry-After hint")
	}
}

// TestExploreCancellation cancels a long exploration mid-flight and
// expects the canceled terminal state.
func TestExploreCancellation(t *testing.T) {
	srv, client, _ := testServer(t, Options{Workers: 1})
	defer srv.Drain(context.Background())
	ctx := context.Background()

	req := smallExplore()
	req.Space.Kernels = []string{"mcf"}
	req.Measure = 300_000 // long enough to still be running when canceled
	st, err := client.SubmitExplore(ctx, req)
	if err != nil {
		t.Fatalf("SubmitExplore: %v", err)
	}
	if err := client.CancelExplore(ctx, st.ID); err != nil {
		t.Fatalf("CancelExplore: %v", err)
	}
	final, err := client.WaitExplore(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitExplore: %v", err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", final.State)
	}
	if _, err := client.Frontier(ctx, st.ID); err == nil {
		t.Fatal("canceled job served a frontier")
	}
}
