package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"wsrs/internal/cacti"
	"wsrs/internal/isa"
	"wsrs/internal/probe"
	"wsrs/internal/regfile"
)

func TestRegistryPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("wsrs_cells_total", "cells completed").Add(7)
	r.Gauge("wsrs_cells_running", "cells in flight").Set(3)
	r.Counter("wsrs_cache_total"+Labels("result", "hit"), "trace cache lookups").Add(5)
	r.Counter("wsrs_cache_total"+Labels("result", "miss"), "trace cache lookups").Add(2)
	h := r.Histogram("wsrs_cell_seconds", "per-cell wall time")
	h.Observe(1)
	h.Observe(3)
	h.Observe(300)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE wsrs_cells_total counter",
		"wsrs_cells_total 7",
		"# TYPE wsrs_cells_running gauge",
		"wsrs_cells_running 3",
		`wsrs_cache_total{result="hit"} 5`,
		`wsrs_cache_total{result="miss"} 2`,
		"# TYPE wsrs_cell_seconds histogram",
		`wsrs_cell_seconds_bucket{le="+Inf"} 3`,
		"wsrs_cell_seconds_sum 304",
		"wsrs_cell_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// One # TYPE line per family even with multiple labeled series.
	if n := strings.Count(out, "# TYPE wsrs_cache_total"); n != 1 {
		t.Errorf("wsrs_cache_total TYPE emitted %d times, want 1", n)
	}
	// Deterministic: a second render is byte-identical.
	var b2 bytes.Buffer
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("exposition is not deterministic across renders")
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "")
	// 0 -> bucket le=1; 1 -> le=2; 2,3 -> le=4; huge -> +Inf.
	for _, v := range []uint64{0, 1, 2, 3, math.MaxUint64} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`h_bucket{le="1"} 1`,
		`h_bucket{le="2"} 2`,
		`h_bucket{le="4"} 4`,
		`h_bucket{le="+Inf"} 5`,
		"h_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram exposition missing %q\n%s", want, out)
		}
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x", "")
	c2 := r.Counter("x", "")
	if c1 != c2 {
		t.Error("same-name counter not idempotent")
	}
	c1.Add(4)
	// Kind mismatch must not panic and must not corrupt the original.
	g := r.Gauge("x", "")
	g.Set(99)
	if c1.Load() != 4 {
		t.Errorf("counter corrupted by kind mismatch: %d", c1.Load())
	}
	snap := r.Snapshot()
	if snap["x"] != 4 {
		t.Errorf("snapshot x = %d, want 4", snap["x"])
	}
}

func TestCounterOverflowWraps(t *testing.T) {
	var c Counter
	c.Add(math.MaxUint64)
	c.Inc() // wraps to 0, must not panic
	c.Add(41)
	c.Inc()
	if got := c.Load(); got != 42 {
		t.Errorf("after wrap Load = %d, want 42", got)
	}
	var a Activity
	a.AddFreeListStall(2, math.MaxUint64)
	a.AddFreeListStall(2, 3) // wraps
	if got := a.FreeListStalls[2]; got != 2 {
		t.Errorf("activity slot after wrap = %d, want 2", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared_total", "").Inc()
				r.Histogram("shared_hist", "").Observe(uint64(j))
				r.Gauge("shared_gauge", "").Add(1)
			}
		}()
	}
	// Concurrent scrapes while writers run.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b bytes.Buffer
			for j := 0; j < 50; j++ {
				b.Reset()
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Load(); got != 8000 {
		t.Errorf("shared_total = %d, want 8000", got)
	}
	if got := r.Histogram("shared_hist", "").Count(); got != 8000 {
		t.Errorf("shared_hist count = %d, want 8000", got)
	}
}

func TestActivityTotalsAndReset(t *testing.T) {
	var a Activity
	a.AddRegRead(0)
	a.AddRegRead(3)
	a.AddRegWrite(1)
	a.AddRegWrite(2)
	// Two writes on the 4-cluster WSRS machine: each is monitored by 4
	// operand sides, 8 wake-up events and 8 bypass drives in all.
	a.CountBroadcasts(4, 4, true)
	a.BypassLocal++
	a.BypassCross++
	a.Moves++
	a.AddRename(1)
	a.AddFreeListStall(1, 5)
	// Out-of-range domains mask into the fixed block instead of
	// panicking (MaxDomains is a power of two).
	a.AddRegRead(MaxDomains + 1)
	if a.RegReads[1] != 1 {
		t.Errorf("masked domain write missing: RegReads[1] = %d", a.RegReads[1])
	}

	if got := a.RegReadTotal(); got != 3 {
		t.Errorf("RegReadTotal = %d, want 3", got)
	}
	if got := a.WakeupTotal(); got != 8 {
		t.Errorf("WakeupTotal = %d, want 8", got)
	}
	if got := a.Wakeup[1]; got != 2 {
		t.Errorf("Wakeup[1] = %d, want 2 (both sides of cluster 1 watch subset 1)", got)
	}
	if got := a.BypassDriveTotal(); got != 8 {
		t.Errorf("BypassDriveTotal = %d, want 8", got)
	}
	if got := a.BypassUseTotal(); got != 2 {
		t.Errorf("BypassUseTotal = %d, want 2", got)
	}
	if got := a.FreeListStallTotal(); got != 5 {
		t.Errorf("FreeListStallTotal = %d, want 5", got)
	}
	a.Reset()
	if a.RegReadTotal() != 0 || a.WakeupTotal() != 0 || a.Moves != 0 {
		t.Error("Reset left counts behind")
	}
}

// TestMonitorCountsHalving pins the structural form of the paper's
// §4.3.2 claim: with read specialization on the 4-cluster machine each
// broadcast is monitored by half the operand sides.
func TestMonitorCountsHalving(t *testing.T) {
	for s := 0; s < 4; s++ {
		var nConv, nWSRS int
		for c := 0; c < 4; c++ {
			nConv += int(monitorCount(s, c, 4, 4, false))
			nWSRS += int(monitorCount(s, c, 4, 4, true))
		}
		if nConv != 8 {
			t.Errorf("subset %d: conventional sides = %d, want 8", s, nConv)
		}
		if nWSRS != 4 {
			t.Errorf("subset %d: WSRS sides = %d, want 4", s, nWSRS)
		}
	}
	// Figure 3 row/column rule: cluster c's first side watches s&2==c&2,
	// second side s&1==c&1; cluster c always sees its own subset twice.
	for c := 0; c < 4; c++ {
		if monitorCount(c, c, 4, 4, true) != 2 {
			t.Errorf("cluster %d does not fully monitor its own subset", c)
		}
	}
	// Non-WSRS geometries fall back to full monitoring.
	if monitorCount(0, 1, 2, 2, true) != 2 {
		t.Error("2-cluster geometry should monitor fully")
	}
}

func TestEnergyStackArithmetic(t *testing.T) {
	m := EnergyModel{
		Name: "t", ReadNJ: 1, WriteNJ: 2, WakeupNJ: 0.5, BypassNJ: 0.25, MoveNJ: 3,
	}
	var a Activity
	for i := 0; i < 10; i++ {
		a.AddRegRead(i % 4)
	}
	for i := 0; i < 5; i++ {
		a.AddRegWrite(i % 4)
	}
	a.Wakeup[0] = 8
	a.BypassDrives[1] = 4
	a.Moves = 1
	s := m.Stack(&a, 1000)
	if s.RegReadNJ != 10 || s.RegWriteNJ != 10 || s.WakeupNJ != 4 || s.BypassNJ != 1 || s.MoveNJ != 3 {
		t.Errorf("component energies wrong: %+v", s)
	}
	if got := s.TotalNJ(); got != 28 {
		t.Errorf("TotalNJ = %v, want 28", got)
	}
	if got := s.TotalPJPerInst(); math.Abs(got-28) > 1e-9 {
		t.Errorf("TotalPJPerInst = %v, want 28", got)
	}
	if (EnergyStack{}).TotalPJPerInst() != 0 {
		t.Error("zero-inst stack should normalize to 0")
	}
}

func TestModelFromOrganization(t *testing.T) {
	tech := cacti.Tech009()
	conv := ModelFromOrganization(tech, regfile.NoWSDistributed(256), 56, 16)
	wsrs := ModelFromOrganization(tech, regfile.WSRS(512), 56, 16)
	if conv.ReadNJ <= 0 || conv.WriteNJ <= 0 || conv.WakeupNJ <= 0 || conv.BypassNJ <= 0 {
		t.Fatalf("non-positive costs: %+v", conv)
	}
	// Read specialization shortens the bank (fewer registers, fewer
	// ports per cell), so the per-read event must be cheaper.
	if wsrs.ReadNJ >= conv.ReadNJ {
		t.Errorf("WSRS read %.4g nJ not cheaper than conventional %.4g nJ",
			wsrs.ReadNJ, conv.ReadNJ)
	}
	if wsrs.MoveNJ <= 0 {
		t.Error("move cost must be positive")
	}
}

func TestPipelineTraceAndWriteTrace(t *testing.T) {
	recs := []probe.UopRecord{
		{Seq: 1, Tid: 0, Cluster: 2, Subset: 2, Op: isa.OpADD,
			Dispatch: 10, Issue: 12, Done: 13, Commit: 15},
		{Seq: 2, Tid: 0, Cluster: 2, Subset: 1, Op: isa.OpLD,
			Dispatch: 10, Issue: 10, Done: 10, Commit: 10, Mispredict: true},
	}
	events := PipelineTrace(recs)
	var slices, meta int
	for _, e := range events {
		switch e.Ph {
		case "X":
			slices++
			if e.Dur <= 0 {
				t.Errorf("slice %q has non-positive dur %v", e.Name, e.Dur)
			}
		case "M":
			meta++
		}
	}
	if slices != 2 {
		t.Errorf("slices = %d, want 2", slices)
	}
	if meta != 2 { // one process_name + one thread_name
		t.Errorf("metadata events = %d, want 2", meta)
	}

	var b bytes.Buffer
	if err := WriteTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(events) {
		t.Errorf("round-tripped %d events, want %d", len(doc.TraceEvents), len(events))
	}
}

func BenchmarkCoreCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCoreActivityAdd(b *testing.B) {
	var a Activity
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.AddRegRead(i & 3)
		a.AddRegWrite(i & 3)
	}
	if a.RegReadTotal() != uint64(b.N) {
		b.Fatal("lost counts")
	}
}

func BenchmarkCoreHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}
