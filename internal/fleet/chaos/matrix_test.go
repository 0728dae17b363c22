package chaos_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"wsrs"
	"wsrs/internal/fleet"
	"wsrs/internal/fleet/chaos"
	"wsrs/internal/otrace/flight"
	"wsrs/internal/serve"
	"wsrs/internal/telemetry"
)

// matrixCells is the grid every chaos mode must reproduce exactly.
func matrixCells(measure uint64) []serve.CellID {
	var out []serve.CellID
	for _, k := range []string{"gzip", "mcf", "vpr"} {
		for _, cfg := range []string{string(wsrs.ConfRR256), string(wsrs.ConfWSRR384)} {
			for seed := int64(1); seed <= 2; seed++ {
				out = append(out, serve.CellID{
					Kernel: k, Config: cfg, Seed: seed, Warmup: 1000, Measure: measure,
				})
			}
		}
	}
	return out
}

// baseline runs the cells through a direct wsrs.RunGrid and encodes
// them — the bytes every chaos-disturbed fleet run must match.
func baseline(t *testing.T, ids []serve.CellID) string {
	t.Helper()
	out := make([]wsrs.Result, len(ids))
	for i, id := range ids {
		res, err := wsrs.RunGrid([]wsrs.GridCell{{
			Kernel: id.Kernel, Config: wsrs.ConfigName(id.Config), Seed: id.Seed,
		}}, wsrs.SimOpts{
			WarmupInsts: id.Warmup, MeasureInsts: id.Measure, Seed: id.Seed,
		}, 1)
		if err != nil {
			t.Fatalf("baseline cell %d: %v", i, err)
		}
		out[i] = res[0].Result
	}
	return encode(t, out)
}

func encode(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// chaosFleet boots n real wsrsd cores, each behind its own chaos
// proxy, and returns the proxies plus the proxy URLs the coordinator
// should target.
func chaosFleet(t *testing.T, n int) ([]*chaos.Proxy, []string) {
	t.Helper()
	proxies := make([]*chaos.Proxy, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := serve.New(serve.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		backend := httptest.NewServer(s.Handler())
		p := chaos.NewProxy(backend.URL)
		front := httptest.NewServer(p)
		t.Cleanup(func() {
			front.Close()
			backend.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = s.Drain(ctx)
		})
		proxies[i], urls[i] = p, front.URL
	}
	return proxies, urls
}

// assertPostmortem is the black-box half of the chaos contract: every
// injected fault mode must leave at least one flight-recorder snapshot
// that names a cell digest from this run, and the artifact persisted to
// the postmortem dir must parse back into the same document — the
// postmortem is useful even when the run itself (byte-identity intact)
// never surfaced an error.
func assertPostmortem(t *testing.T, fr *flight.Recorder, ids []serve.CellID) {
	t.Helper()
	digests := make(map[string]bool, len(ids))
	for _, id := range ids {
		digests[id.Digest()] = true
	}
	snaps := fr.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("chaos run left no flight-recorder snapshot")
	}
	var named *flight.Snapshot
	var reasons []string
	for _, s := range snaps {
		reasons = append(reasons, s.Reason)
		if named == nil && digests[s.CellDigest] {
			named = s
		}
	}
	if named == nil {
		t.Fatalf("no snapshot names a cell digest from this run (reasons: %v)", reasons)
	}
	if named.Path == "" {
		t.Fatalf("%q snapshot was not persisted to the postmortem dir", named.Reason)
	}
	data, err := os.ReadFile(named.Path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed flight.Snapshot
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("postmortem artifact %s does not parse: %v", named.Path, err)
	}
	if parsed.Reason != named.Reason || parsed.CellDigest != named.CellDigest || parsed.Process != "coordinator" {
		t.Fatalf("parsed artifact (%s/%s/%s) disagrees with the live snapshot (%s/%s/coordinator)",
			parsed.Process, parsed.Reason, parsed.CellDigest, named.Reason, named.CellDigest)
	}
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

// TestChaosMatrix is the fleet's robustness contract: for every
// injected failure mode — added latency, dropped connections, 5xx
// bursts, truncated bodies, and a hard backend kill mid-job — the
// scatter/gather run still ends byte-identical to a local
// wsrs.RunGrid, and the coordinator's failure-path counters show the
// machinery (hedges, retries, ejection) actually fired.
func TestChaosMatrix(t *testing.T) {
	ids := matrixCells(5000)
	want := baseline(t, ids)

	modes := []struct {
		name   string
		faults chaos.Faults
		tune   func(*fleet.Options)
		fired  string // metric family that must be non-zero afterwards
	}{
		{
			name:   "latency",
			faults: chaos.Faults{Latency: 120 * time.Millisecond},
			tune:   func(o *fleet.Options) { o.HedgeAfter = 20 * time.Millisecond },
			fired:  "wsrsd_fleet_hedges_total",
		},
		{
			name:   "drop",
			faults: chaos.Faults{DropEvery: 4},
			fired:  "wsrsd_fleet_retries_total",
		},
		{
			name:   "5xx",
			faults: chaos.Faults{ErrorEvery: 4},
			fired:  "wsrsd_fleet_retries_total",
		},
		{
			name:   "truncate",
			faults: chaos.Faults{TruncateEvery: 4},
			fired:  "wsrsd_fleet_retries_total",
		},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			proxies, urls := chaosFleet(t, 3)
			o := fleet.Options{
				Backends:      urls,
				ProbeInterval: -1, // membership fixed: this mode tests the request path
				HedgeAfter:    -1,
				BaseBackoff:   time.Millisecond,
				MaxBackoff:    8 * time.Millisecond,
				MaxAttempts:   5,
				// A flaky-but-alive backend must not get benched: the
				// matrix is about the request path, the kill subtest
				// below is about membership.
				BreakerThreshold: 1000,
				Seed:             1,
			}
			if m.tune != nil {
				m.tune(&o)
			}
			fr := flight.New(flight.Options{Process: "coordinator", Dir: t.TempDir()})
			o.Flight = fr
			c := fleet.New(o)
			defer c.Close()
			for _, p := range proxies {
				p.SetFaults(m.faults)
			}

			got, err := c.RunCells(context.Background(), ids)
			if err != nil {
				t.Fatalf("RunCells under %s chaos: %v", m.name, err)
			}
			if encode(t, got) != want {
				t.Fatalf("results under %s chaos are not byte-identical to the local run", m.name)
			}
			if counter(c.Registry(), m.fired) == 0 {
				t.Fatalf("%s chaos did not exercise %s", m.name, m.fired)
			}
			assertPostmortem(t, fr, ids)
		})
	}

	// The kill mode: one backend dies mid-job with cells in flight;
	// the prober ejects it, its cells re-hash to the survivors, and
	// the gathered grid is still byte-identical.
	t.Run("kill", func(t *testing.T) {
		killIDs := matrixCells(400_000) // long enough that the kill lands mid-job
		killWant := baseline(t, killIDs)

		proxies, urls := chaosFleet(t, 3)
		// The ring places the proxies' random ports at random: kill the
		// home of the first cell, so the kill breaks attempts in flight.
		ring := fleet.NewRing(0)
		for _, u := range urls {
			ring.Add(u)
		}
		home, _ := ring.Home(killIDs[0].Digest())
		victim := proxies[slices.Index(urls, home)]
		fr := flight.New(flight.Options{Process: "coordinator", Dir: t.TempDir()})
		c := fleet.New(fleet.Options{
			Backends:      urls,
			ProbeInterval: 25 * time.Millisecond,
			ProbeTimeout:  200 * time.Millisecond,
			EjectAfter:    1,
			HedgeAfter:    -1,
			BaseBackoff:   time.Millisecond,
			MaxBackoff:    8 * time.Millisecond,
			MaxAttempts:   5,
			Flight:        fr,
			Seed:          1,
		})
		defer c.Close()

		done := make(chan struct{})
		var got []wsrs.Result
		var runErr error
		go func() {
			defer close(done)
			got, runErr = c.RunCells(context.Background(), killIDs)
		}()
		time.Sleep(60 * time.Millisecond)
		victim.Kill()
		<-done
		if runErr != nil {
			t.Fatalf("RunCells across a mid-job kill: %v", runErr)
		}
		if encode(t, got) != killWant {
			t.Fatal("results across a mid-job kill are not byte-identical to the local run")
		}
		// The dead member must be out of the ring (probe it once more
		// in case the job outran the prober).
		c.ProbeNow()
		if counter(c.Registry(), "wsrsd_fleet_ejections_total") == 0 {
			t.Fatal("killed backend was never ejected")
		}
		if n := len(c.Healthy()); n != 2 {
			t.Fatalf("Healthy() = %d members after the kill, want 2", n)
		}
		// The black box must hold both halves of the incident: a snapshot
		// naming a failing cell (the in-flight attempts the kill broke)
		// and the membership transition that benched the dead member.
		assertPostmortem(t, fr, killIDs)
		ejectSnap := false
		for _, s := range fr.Snapshots() {
			if s.Reason == "backend-ejected" {
				ejectSnap = true
			}
		}
		if !ejectSnap {
			t.Fatal("ejection left no backend-ejected flight-recorder snapshot")
		}

		// Recovery: revive the backend; the prober readmits it and the
		// original assignment (and byte-identity) still holds.
		victim.Revive()
		c.ProbeNow()
		if n := len(c.Healthy()); n != 3 {
			t.Fatalf("Healthy() = %d members after revival, want 3", n)
		}
		got, err := c.RunCells(context.Background(), killIDs)
		if err != nil {
			t.Fatalf("RunCells after revival: %v", err)
		}
		if encode(t, got) != killWant {
			t.Fatal("results after revival are not byte-identical to the local run")
		}
	})
}
