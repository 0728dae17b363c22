package wsrs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestGoldenEnergy pins the dynamic energy table ("Table 1 in
// motion") for two benchmarks across the full Figure 4 configuration
// set. Activity counts are integers from a deterministic simulation
// and the energy prices are closed-form, so the table is
// byte-reproducible.
func TestGoldenEnergy(t *testing.T) {
	cells, err := RunEnergy(nil, []string{"gzip", "wupwise"}, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderEnergy(&buf, cells)
	checkGolden(t, "energy.golden", buf.Bytes())
}

// TestEnergyFacadeHalving checks the acceptance criterion end to end
// through the public API: on the same kernel, the 4-cluster WSRS
// machine's monitored wake-up and bypass events per instruction are
// about half the conventional machine's, and its total dynamic energy
// stack is strictly cheaper.
func TestEnergyFacadeHalving(t *testing.T) {
	cells, err := RunEnergy([]ConfigName{ConfRR256, ConfWSRSRC512}, []string{"gzip"}, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	conv, wsrs := cells[0].Stack, cells[1].Stack
	if cells[0].Config != ConfRR256 {
		conv, wsrs = wsrs, conv
	}
	if conv.Insts == 0 || wsrs.Insts == 0 {
		t.Fatal("energy stacks missing instruction counts")
	}
	convRate := float64(conv.WakeupEvents) / float64(conv.Insts)
	wsrsRate := float64(wsrs.WakeupEvents) / float64(wsrs.Insts)
	ratio := wsrsRate / convRate
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("WSRS/conventional wake-up events per inst = %.3f, want ~0.5", ratio)
	}
	if wsrs.TotalPJPerInst() >= conv.TotalPJPerInst() {
		t.Errorf("WSRS total %.1f pJ/inst not cheaper than conventional %.1f",
			wsrs.TotalPJPerInst(), conv.TotalPJPerInst())
	}
}

// TestGridTelemetryObserver drives a small grid through the
// batteries-included observer and checks each of its outputs: the
// progress stream, the Prometheus exposition, the JSON manifest and
// the host Chrome trace.
func TestGridTelemetryObserver(t *testing.T) {
	gt := NewGridTelemetry()
	var progress bytes.Buffer
	gt.Progress = &progress
	gt.Label = "test-grid"
	gt.Meta = map[string]string{"suite": "observer"}

	opts := goldenOpts
	opts.Observer = gt
	cells := []GridCell{
		{Kernel: "gzip", Config: ConfRR256},
		{Kernel: "gzip", Config: ConfWSRSRC512},
		{Kernel: "wupwise", Config: ConfRR256},
	}
	if _, err := RunGrid(cells, opts, 1); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	if len(lines) != len(cells) {
		t.Errorf("progress wrote %d lines, want %d:\n%s", len(lines), len(cells), progress.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "IPC") || !strings.Contains(l, "ms") {
			t.Errorf("progress line missing IPC or wall time: %q", l)
		}
	}

	var prom bytes.Buffer
	if err := gt.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE wsrs_grid_cells_total counter",
		`wsrs_grid_cells_total{outcome="ok"} 3`,
		"wsrs_grid_cells_running 0",
		"# TYPE wsrs_grid_cell_ms histogram",
		"wsrs_grid_cell_ms_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q:\n%s", want, text)
		}
	}

	m := gt.BuildManifest()
	if m.Label != "test-grid" || m.Meta["suite"] != "observer" {
		t.Errorf("manifest label/meta not propagated: %+v", m)
	}
	if m.CellsTotal != 3 || m.CellsFailed != 0 {
		t.Errorf("manifest cells_total=%d failed=%d, want 3/0", m.CellsTotal, m.CellsFailed)
	}
	if len(m.ConfigDigest) != 64 {
		t.Errorf("config digest %q is not a sha256 hex string", m.ConfigDigest)
	}
	if m.Activity == nil || m.Activity["wakeup_events"] == 0 {
		t.Errorf("manifest missing aggregated activity: %v", m.Activity)
	}
	for i, c := range m.Cells {
		if c.Index != i {
			t.Errorf("manifest cells not sorted by index: %v", m.Cells)
			break
		}
		if c.IPC <= 0 || c.Error != "" {
			t.Errorf("cell %d bad outcome: %+v", i, c)
		}
	}
	// gzip runs twice: only its first cell is a cold functional
	// simulation, the second reuses the memoized trace.
	if !m.Cells[0].ColdTrace || m.Cells[1].ColdTrace || !m.Cells[2].ColdTrace {
		t.Errorf("cold-trace marking wrong: %+v", m.Cells)
	}
	var manifestJSON bytes.Buffer
	if err := gt.WriteManifest(&manifestJSON); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(manifestJSON.Bytes(), &decoded); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}

	var traceJSON bytes.Buffer
	if err := gt.WriteHostTrace(&traceJSON); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceJSON.Bytes(), &tr); err != nil {
		t.Fatalf("host trace is not valid JSON: %v", err)
	}
	var slices, meta int
	for _, e := range tr.TraceEvents {
		switch e["ph"] {
		case "X":
			slices++
		case "M":
			meta++
		}
	}
	if slices != 3 || meta == 0 {
		t.Errorf("host trace has %d slices and %d metadata events, want 3 slices and >0 metadata", slices, meta)
	}
}

// TestManifestDigestStable checks that the config digest depends only
// on the cell identities: a serial and a parallel run of the same grid
// agree on it even though completion order differs.
func TestManifestDigestStable(t *testing.T) {
	digest := func(par int) string {
		gt := NewGridTelemetry()
		opts := goldenOpts
		opts.Observer = gt
		cells := []GridCell{
			{Kernel: "gzip", Config: ConfRR256},
			{Kernel: "gzip", Config: ConfWSRR384},
			{Kernel: "gzip", Config: ConfWSRSRC512},
			{Kernel: "wupwise", Config: ConfWSRSRC512},
		}
		if _, err := RunGrid(cells, opts, par); err != nil {
			t.Fatal(err)
		}
		return gt.BuildManifest().ConfigDigest
	}
	serial, parallel := digest(1), digest(4)
	if serial != parallel {
		t.Errorf("config digest differs between serial (%s) and parallel (%s) runs", serial, parallel)
	}
}

// dispatchCells and dispatchOpts are a grid small enough that
// RunGrid's own dispatch work is visible next to the simulations:
// four cells of one kernel over the memoized trace cache.
var (
	dispatchCells = []GridCell{
		{Kernel: "gzip", Config: ConfRR256},
		{Kernel: "gzip", Config: ConfWSRR384},
		{Kernel: "gzip", Config: ConfWSRSRC512},
		{Kernel: "gzip", Config: ConfWSRSRM512},
	}
	dispatchOpts = SimOpts{WarmupInsts: 500, MeasureInsts: 2000}
)

// BenchmarkCoreGridDispatch measures the worker-pool cost of pushing
// small cells through RunGrid over the memoized trace cache.
func BenchmarkCoreGridDispatch(b *testing.B) {
	if _, err := RunGrid(dispatchCells, dispatchOpts, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunGrid(dispatchCells, dispatchOpts, 0); err != nil {
			b.Fatal(err)
		}
	}
}
