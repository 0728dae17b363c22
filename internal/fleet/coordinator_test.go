package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsrs"
	"wsrs/internal/serve"
	"wsrs/internal/telemetry"
)

// testCells is a small grid spanning kernels, configs and seeds so
// cells shard across the whole fleet.
func testCells(t *testing.T) []serve.CellID {
	t.Helper()
	var out []serve.CellID
	for _, k := range []string{"gzip", "mcf"} {
		for _, cfg := range []string{string(wsrs.ConfRR256), string(wsrs.ConfWSRR384)} {
			for seed := int64(1); seed <= 2; seed++ {
				out = append(out, serve.CellID{
					Kernel: k, Config: cfg, Seed: seed, Warmup: 1000, Measure: 5000,
				})
			}
		}
	}
	return out
}

// cellsHomedOn returns on cells whose ring home is member plus off
// cells homed elsewhere, in testCells' shape. The ring places an
// httptest URL at random, so a test that needs traffic on one member
// picks its cells by their home instead of assuming some land there.
func cellsHomedOn(t *testing.T, c *Coordinator, member string, on, off int) []serve.CellID {
	t.Helper()
	var out []serve.CellID
	for seed := int64(1); on+off > 0; seed++ {
		if seed > 10_000 {
			t.Fatalf("no %d more cells homed on %s (%d elsewhere) in 10000 seeds", on, member, off)
		}
		id := serve.CellID{
			Kernel:  []string{"gzip", "mcf"}[seed%2],
			Config:  []string{string(wsrs.ConfRR256), string(wsrs.ConfWSRR384)}[seed/2%2],
			Seed:    seed,
			Warmup:  1000,
			Measure: 5000,
		}
		home, _ := c.ring.Home(id.Digest())
		switch {
		case home == member && on > 0:
			on--
		case home != member && off > 0:
			off--
		default:
			continue
		}
		out = append(out, id)
	}
	return out
}

// localResults is the ground truth: the same cells through a direct
// wsrs.RunGrid, exactly as a member daemon would run them.
func localResults(t *testing.T, ids []serve.CellID) []wsrs.Result {
	t.Helper()
	out := make([]wsrs.Result, len(ids))
	for i, id := range ids {
		res, err := wsrs.RunGrid([]wsrs.GridCell{{
			Kernel: id.Kernel, Config: wsrs.ConfigName(id.Config), Policy: id.Policy, Seed: id.Seed,
		}}, wsrs.SimOpts{
			WarmupInsts: id.Warmup, MeasureInsts: id.Measure, Seed: id.Seed,
		}, 1)
		if err != nil {
			t.Fatalf("local cell %d: %v", i, err)
		}
		out[i] = res[0].Result
	}
	return out
}

// mustEncode is the byte-identity probe: both sides of every
// comparison go through the same encoding.
func mustEncode(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// startBackend boots one real wsrsd core behind an httptest listener.
func startBackend(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(serve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func counter(reg *telemetry.Registry, name string) uint64 {
	var total uint64
	for k, v := range reg.Snapshot() {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

func newTestCoordinator(t *testing.T, backends []string, mod func(*Options)) *Coordinator {
	t.Helper()
	o := Options{
		Backends:      backends,
		ProbeInterval: -1, // membership changes only via explicit ProbeNow
		HedgeAfter:    -1,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    4 * time.Millisecond,
		CellTimeout:   30 * time.Second,
		Seed:          1,
	}
	if mod != nil {
		mod(&o)
	}
	c := New(o)
	t.Cleanup(c.Close)
	return c
}

func TestScatterGatherMatchesLocal(t *testing.T) {
	var backends []string
	for i := 0; i < 3; i++ {
		_, ts := startBackend(t)
		backends = append(backends, ts.URL)
	}
	c := newTestCoordinator(t, backends, nil)
	ids := testCells(t)

	got, err := c.RunCells(context.Background(), ids)
	if err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	want := localResults(t, ids)
	if mustEncode(t, got) != mustEncode(t, want) {
		t.Fatal("fleet results are not byte-identical to the local run")
	}
	if n := counter(c.Registry(), mRetries); n != 0 {
		t.Fatalf("healthy fleet retried %d times", n)
	}
	if n := counter(c.Registry(), mCells+telemetry.Labels("outcome", "remote")); n != uint64(len(ids)) {
		t.Fatalf("remote cells = %d, want %d", n, len(ids))
	}

	// The second pass is pure cache: same bytes again, zero new sims.
	again, err := c.RunCells(context.Background(), ids)
	if err != nil {
		t.Fatalf("second RunCells: %v", err)
	}
	if mustEncode(t, again) != mustEncode(t, want) {
		t.Fatal("cached fleet results diverge from the local run")
	}
}

func TestRetriesRouteAroundDeadBackend(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	var backends []string
	for i := 0; i < 2; i++ {
		_, ts := startBackend(t)
		backends = append(backends, ts.URL)
	}
	backends = append(backends, deadURL)

	c := newTestCoordinator(t, backends, nil)
	ids := cellsHomedOn(t, c, deadURL, 3, 5)
	got, err := c.RunCells(context.Background(), ids)
	if err != nil {
		t.Fatalf("RunCells with one dead backend: %v", err)
	}
	if mustEncode(t, got) != mustEncode(t, localResults(t, ids)) {
		t.Fatal("results with a dead backend are not byte-identical to the local run")
	}
	// Three cells homed on the dead member, so retries must have fired.
	if counter(c.Registry(), mRetries) == 0 {
		t.Fatal("no retries recorded although one backend was dead")
	}
}

func TestLocalFallbackWhenFleetEmpty(t *testing.T) {
	c := newTestCoordinator(t, nil, nil)
	ids := testCells(t)[:2]
	got, err := c.RunCells(context.Background(), ids)
	if err != nil {
		t.Fatalf("RunCells on an empty fleet: %v", err)
	}
	if mustEncode(t, got) != mustEncode(t, localResults(t, ids)) {
		t.Fatal("empty-fleet results are not byte-identical to the local run")
	}
	if counter(c.Registry(), mFallbacks+telemetry.Labels("reason", "no-backend")) == 0 {
		t.Fatal("no-backend fallback not counted")
	}
}

func TestLocalFallbackAfterExhaustedAttempts(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	c := newTestCoordinator(t, []string{deadURL}, func(o *Options) {
		o.MaxAttempts = 2
		o.BreakerThreshold = 100 // keep the breaker out of this test's way
	})
	ids := testCells(t)[:2]
	got, err := c.RunCells(context.Background(), ids)
	if err != nil {
		t.Fatalf("RunCells against a dead fleet: %v", err)
	}
	if mustEncode(t, got) != mustEncode(t, localResults(t, ids)) {
		t.Fatal("exhausted-fleet results are not byte-identical to the local run")
	}
	if counter(c.Registry(), mFallbacks+telemetry.Labels("reason", "exhausted")) == 0 {
		t.Fatal("exhausted fallback not counted")
	}
	if counter(c.Registry(), mRetries) == 0 {
		t.Fatal("no retries before giving up on the fleet")
	}
}

// flaky wraps a backend handler with a switchable 503 mode: down
// simulates an unhealthy-but-reachable member (failed /readyz probes
// and failed requests) that can recover.
type flaky struct {
	h    http.Handler
	down atomic.Bool
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		http.Error(w, "chaos: down", http.StatusServiceUnavailable)
		return
	}
	f.h.ServeHTTP(w, r)
}

func TestHealthEjectsAndReadmits(t *testing.T) {
	sA, _ := startBackend(t)
	fA := &flaky{h: sA.Handler()}
	tsA := httptest.NewServer(fA)
	t.Cleanup(tsA.Close)
	_, tsB := startBackend(t)

	c := newTestCoordinator(t, []string{tsA.URL, tsB.URL}, func(o *Options) {
		o.EjectAfter = 2
	})
	ids := testCells(t)
	want := mustEncode(t, localResults(t, ids))

	got, err := c.RunCells(context.Background(), ids)
	if err != nil || mustEncode(t, got) != want {
		t.Fatalf("healthy two-member fleet: err=%v identical=%v", err, mustEncode(t, got) == want)
	}
	if len(c.Healthy()) != 2 {
		t.Fatalf("Healthy() = %v, want both members", c.Healthy())
	}

	// A goes down: two failed probes eject it and its cells re-hash.
	fA.down.Store(true)
	c.ProbeNow()
	c.ProbeNow()
	if h := c.Healthy(); len(h) != 1 || h[0] != tsB.URL {
		t.Fatalf("Healthy() after eject = %v, want only %s", h, tsB.URL)
	}
	if counter(c.Registry(), mEjections) != 1 {
		t.Fatal("ejection not counted")
	}
	got, err = c.RunCells(context.Background(), ids)
	if err != nil || mustEncode(t, got) != want {
		t.Fatalf("post-eject fleet: err=%v identical=%v", err, mustEncode(t, got) == want)
	}

	// A recovers: one good probe readmits it, restoring the assignment.
	fA.down.Store(false)
	c.ProbeNow()
	if len(c.Healthy()) != 2 {
		t.Fatalf("Healthy() after recovery = %v, want both members", c.Healthy())
	}
	if counter(c.Registry(), mReadmits) != 1 {
		t.Fatal("readmission not counted")
	}
	got, err = c.RunCells(context.Background(), ids)
	if err != nil || mustEncode(t, got) != want {
		t.Fatalf("post-readmit fleet: err=%v identical=%v", err, mustEncode(t, got) == want)
	}
}

// straggler holds every request until the client cancels it: a member
// that never answers, so a cell homed on it resolves only through its
// hedge. The body is drained first because the server notices a
// client hang-up only once the body has been read.
type straggler struct{}

func (straggler) ServeHTTP(_ http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	<-r.Context().Done()
}

func TestHedgingBeatsStragglers(t *testing.T) {
	tsSlow := httptest.NewServer(straggler{})
	t.Cleanup(tsSlow.Close)
	_, tsFast := startBackend(t)

	c := newTestCoordinator(t, []string{tsSlow.URL, tsFast.URL}, func(o *Options) {
		o.HedgeAfter = 25 * time.Millisecond
	})
	ids := cellsHomedOn(t, c, tsSlow.URL, 3, 5)
	got, err := c.RunCells(context.Background(), ids)
	if err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	if mustEncode(t, got) != mustEncode(t, localResults(t, ids)) {
		t.Fatal("hedged results are not byte-identical to the local run")
	}
	// Three cells homed on the straggler; their hedges launched and,
	// the straggler never answering, won.
	if counter(c.Registry(), mHedges) == 0 {
		t.Fatal("no hedges launched against a straggler")
	}
	if counter(c.Registry(), mHedgeWins) == 0 {
		t.Fatal("no hedge wins recorded against a straggler")
	}
}

func TestBreakerShieldsDeadBackend(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	_, tsOK := startBackend(t)

	c := newTestCoordinator(t, []string{deadURL, tsOK.URL}, func(o *Options) {
		o.BreakerThreshold = 2
		o.BreakerCooldown = time.Hour // stays open for the whole test
	})
	// Three cells homed on the dead member fail there first: one more
	// than the threshold.
	ids := cellsHomedOn(t, c, deadURL, 3, 5)
	if _, err := c.RunCells(context.Background(), ids); err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	if counter(c.Registry(), mBreakerOpen) == 0 {
		t.Fatal("breaker never opened against a dead backend")
	}
	// With the breaker open, a fresh pass dispatches only to the live
	// member: no further retries needed.
	before := counter(c.Registry(), mRetries)
	extra := []serve.CellID{{Kernel: "vpr", Config: string(wsrs.ConfRR256), Seed: 7, Warmup: 1000, Measure: 5000}}
	if _, err := c.RunCells(context.Background(), extra); err != nil {
		t.Fatalf("post-open RunCells: %v", err)
	}
	if after := counter(c.Registry(), mRetries); after != before {
		t.Fatalf("open breaker did not shield the dead backend: retries %d -> %d", before, after)
	}
}

func TestRunCellCancellation(t *testing.T) {
	_, ts := startBackend(t)
	c := newTestCoordinator(t, []string{ts.URL}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := c.RunCell(ctx, serve.CellID{
		Kernel: "gzip", Config: string(wsrs.ConfRR256), Seed: 1,
		Warmup: 1000, Measure: 500_000_000, // minutes of work if not canceled
	})
	if err == nil {
		t.Fatal("canceled RunCell returned no error")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancellation took %v to propagate", d)
	}
}

func TestFetchPeerUsesCacheHome(t *testing.T) {
	var backends []string
	for i := 0; i < 2; i++ {
		_, ts := startBackend(t)
		backends = append(backends, ts.URL)
	}
	c := newTestCoordinator(t, backends, nil)
	id := testCells(t)[0]
	digest := id.Digest()

	if _, ok := c.FetchPeer(context.Background(), digest); ok {
		t.Fatal("peer fetch hit before anything ran")
	}
	if _, _, err := c.RunCell(context.Background(), id); err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	// The cell ran on its cache home, so the home's cache now holds it.
	res, ok := c.FetchPeer(context.Background(), digest)
	if !ok {
		t.Fatal("peer fetch missed after the home ran the cell")
	}
	want := localResults(t, []serve.CellID{id})[0]
	if mustEncode(t, res) != mustEncode(t, want) {
		t.Fatal("peer-fetched result differs from the local run")
	}
}
