package wsrs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"wsrs/internal/otrace"
	"wsrs/internal/telemetry"
)

// TraceObserver is the span-emitting GridObserver: one "grid.cell"
// span per cell, parented under the given context, recorded into the
// given recorder. wsrsd attaches one per simulate dispatch so the host
// RunGrid work shows up inside the job trace; non-daemon runs get the
// same spans through GridTelemetry's built-in recorder instead.
type TraceObserver struct {
	rec    *otrace.Recorder
	parent otrace.Ctx

	mu     sync.Mutex
	starts map[int]int64
}

// NewTraceObserver builds the observer. A zero parent starts a fresh
// trace on first use.
func NewTraceObserver(rec *otrace.Recorder, parent otrace.Ctx) *TraceObserver {
	return &TraceObserver{rec: rec, parent: parent, starts: map[int]int64{}}
}

// CellStarted implements GridObserver.
func (t *TraceObserver) CellStarted(i int, cell GridCell, worker int) {
	now := otrace.Now()
	t.mu.Lock()
	t.starts[i] = now
	t.mu.Unlock()
}

// CellFinished implements GridObserver.
func (t *TraceObserver) CellFinished(i int, r GridResult) {
	end := otrace.Now()
	t.mu.Lock()
	start, ok := t.starts[i]
	delete(t.starts, i)
	t.mu.Unlock()
	if !ok {
		start = end
	}
	sp := t.rec.Make("grid.cell", t.parent, start, end)
	sp.SetStr("kernel", r.Cell.Kernel)
	sp.SetStr("config", string(r.Cell.Config))
	sp.SetInt("worker", int64(r.Worker))
	if r.Err != nil {
		sp.SetStr("error", r.Err.Error())
	} else {
		sp.SetInt("cycles", r.Result.Cycles)
	}
	t.rec.Append(&sp)
}

// GridTelemetry is the batteries-included GridObserver: it turns
// RunGrid progress callbacks into
//
//   - live Prometheus metrics (cells completed/running/failed, cache
//     hit rate, per-cell wall time) in a telemetry.Registry, ready for
//     the wsrsbench -listen endpoint;
//   - optional one-line-per-cell progress output on Progress;
//   - a JSON run manifest (config digest, per-cell outcomes, counter
//     totals, aggregate activity) via WriteManifest;
//   - a host-side Chrome trace of the worker pool (one track per
//     worker, one slice per cell) via HostTrace.
//
// All methods are safe for concurrent use; RunGrid calls the observer
// from its worker goroutines.
type GridTelemetry struct {
	// Progress, when non-nil, receives one line per finished cell:
	// index, cell identity, IPC, wall time, and whether the kernel's
	// trace was already memoized (cached) or had to be built (cold).
	Progress io.Writer
	// Label names the run in the manifest (typically the experiment
	// flag value); optional.
	Label string
	// Meta carries free-form run metadata into the manifest
	// (command-line flags, environment); optional.
	Meta map[string]string

	reg    *telemetry.Registry
	start  time.Time
	tracer *otrace.Recorder
	trace  otrace.TraceID

	mu         sync.Mutex
	total      int
	seenKernel map[string]bool
	coldCell   map[int]bool
	cellStart  map[int]int64
	cells      []ManifestCell
	events     []TraceEvent
	seenWorker map[int]bool
	activity   telemetry.Activity
	insts      uint64
}

// NewGridTelemetry builds a grid observer publishing into a fresh
// registry. Attach it via SimOpts.Observer.
func NewGridTelemetry() *GridTelemetry {
	g := &GridTelemetry{
		reg:        telemetry.NewRegistry(),
		start:      time.Now(),
		tracer:     otrace.NewRecorder(0),
		seenKernel: map[string]bool{},
		coldCell:   map[int]bool{},
		cellStart:  map[int]int64{},
		seenWorker: map[int]bool{},
	}
	g.trace = g.tracer.NewTrace()
	// Register the families up front so a scrape before the first
	// cell already shows them.
	g.reg.Counter("wsrs_grid_cells_total"+telemetry.Labels("outcome", "ok"), "grid cells by outcome")
	g.reg.Counter("wsrs_grid_cells_total"+telemetry.Labels("outcome", "error"), "grid cells by outcome")
	g.reg.Counter("wsrs_grid_cells_total"+telemetry.Labels("outcome", "resumed"), "grid cells by outcome")
	g.reg.Gauge("wsrs_grid_cells_running", "grid cells currently simulating")
	g.reg.Histogram("wsrs_grid_cell_ms", "per-cell wall time in milliseconds")
	g.reg.Counter("wsrs_grid_insts_total", "committed instructions across finished cells")
	g.reg.Gauge("wsrs_trace_cache_hits", "trace cache reuses")
	g.reg.Gauge("wsrs_trace_cache_misses", "trace cache cold functional simulations")
	return g
}

// Registry exposes the observer's metric registry (for the HTTP
// endpoint or direct scraping).
func (g *GridTelemetry) Registry() *Registry { return g.reg }

// CellStarted implements GridObserver.
func (g *GridTelemetry) CellStarted(i int, cell GridCell, worker int) {
	g.reg.Gauge("wsrs_grid_cells_running", "").Add(1)
	g.mu.Lock()
	g.total++
	g.cellStart[i] = otrace.Now()
	if !g.seenKernel[cell.Kernel] {
		g.seenKernel[cell.Kernel] = true
		g.coldCell[i] = true
	}
	if !g.seenWorker[worker] {
		g.seenWorker[worker] = true
		g.events = append(g.events,
			telemetry.MetadataEvent("process_name", "wsrsbench grid", 1, 0),
			telemetry.MetadataEvent("thread_name", fmt.Sprintf("worker %d", worker), 1, worker+1))
	}
	g.mu.Unlock()
}

// CellFinished implements GridObserver.
func (g *GridTelemetry) CellFinished(i int, r GridResult) {
	g.reg.Gauge("wsrs_grid_cells_running", "").Add(-1)
	outcome := "ok"
	switch {
	case r.Err != nil:
		outcome = "error"
	case r.Resumed:
		outcome = "resumed"
	}
	g.reg.Counter("wsrs_grid_cells_total"+telemetry.Labels("outcome", outcome), "grid cells by outcome").Inc()
	ms := uint64(r.Wall.Milliseconds())
	g.reg.Histogram("wsrs_grid_cell_ms", "").Observe(ms)
	g.reg.Counter("wsrs_grid_insts_total", "").Add(r.Result.Insts)
	ts := TraceStats()
	g.reg.Gauge("wsrs_trace_cache_hits", "").Set(int64(ts.Hits))
	g.reg.Gauge("wsrs_trace_cache_misses", "").Set(int64(ts.Misses))

	g.mu.Lock()
	cold := g.coldCell[i]
	mc := ManifestCell{
		Index: i, Kernel: r.Cell.Kernel, Config: string(r.Cell.Config),
		Seed: r.Cell.Seed, Policy: r.Cell.Policy,
		WallMs: float64(r.Wall.Microseconds()) / 1000,
		Worker: r.Worker, Resumed: r.Resumed, ColdTrace: cold,
	}
	if r.Err != nil {
		mc.Error = r.Err.Error()
	} else {
		mc.IPC = r.Result.IPC
		mc.Insts = r.Result.Insts
		mc.Cycles = r.Result.Cycles
	}
	g.cells = append(g.cells, mc)
	g.insts += r.Result.Insts
	mergeActivity(&g.activity, &r.Result.Activity)
	ev := telemetry.CompleteEvent(
		fmt.Sprintf("%s/%s", r.Cell.Kernel, r.Cell.Config), "cell",
		float64(time.Since(g.start).Microseconds())-float64(r.Wall.Microseconds()),
		float64(r.Wall.Microseconds()), 1, r.Worker+1)
	ev.Args = map[string]any{"index": i, "ipc": r.Result.IPC, "resumed": r.Resumed}
	g.events = append(g.events, ev)
	done := len(g.cells)
	startNs, haveStart := g.cellStart[i]
	delete(g.cellStart, i)
	g.mu.Unlock()

	endNs := otrace.Now()
	if !haveStart {
		startNs = endNs
	}
	sp := g.tracer.Make("grid.cell", otrace.Ctx{Trace: g.trace}, startNs, endNs)
	sp.SetStr("kernel", r.Cell.Kernel)
	sp.SetStr("config", string(r.Cell.Config))
	sp.SetInt("cell", int64(i))
	sp.SetInt("worker", int64(r.Worker))
	if r.Err != nil {
		sp.SetStr("error", r.Err.Error())
	} else {
		sp.SetBool("cold_trace", cold)
	}
	g.tracer.Append(&sp)

	if g.Progress != nil {
		status := "cached trace"
		if cold {
			status = "cold trace"
		}
		if r.Resumed {
			status = "resumed"
		}
		line := fmt.Sprintf("[%d] %s/%s: IPC %.2f, %.1f ms, %s\n",
			done, r.Cell.Kernel, r.Cell.Config, r.Result.IPC,
			float64(r.Wall.Microseconds())/1000, status)
		if r.Err != nil {
			line = fmt.Sprintf("[%d] %s/%s: FAILED: %v\n", done, r.Cell.Kernel, r.Cell.Config, r.Err)
		}
		fmt.Fprint(g.Progress, line)
	}
}

// mergeActivity adds src's counts into dst (single-writer contexts:
// called under the observer mutex).
func mergeActivity(dst, src *telemetry.Activity) {
	for i := 0; i < telemetry.MaxDomains; i++ {
		dst.RegReads[i] += src.RegReads[i]
		dst.RegWrites[i] += src.RegWrites[i]
		dst.Wakeup[i] += src.Wakeup[i]
		dst.BypassDrives[i] += src.BypassDrives[i]
		dst.Renames[i] += src.Renames[i]
		dst.FreeListStalls[i] += src.FreeListStalls[i]
	}
	dst.BypassLocal += src.BypassLocal
	dst.BypassCross += src.BypassCross
	dst.Moves += src.Moves
}

// ManifestCell is one cell's outcome in the run manifest.
type ManifestCell struct {
	Index     int     `json:"index"`
	Kernel    string  `json:"kernel"`
	Config    string  `json:"config"`
	Seed      int64   `json:"seed,omitempty"`
	Policy    string  `json:"policy,omitempty"`
	IPC       float64 `json:"ipc,omitempty"`
	Insts     uint64  `json:"insts,omitempty"`
	Cycles    int64   `json:"cycles,omitempty"`
	WallMs    float64 `json:"wall_ms"`
	Worker    int     `json:"worker"`
	Resumed   bool    `json:"resumed,omitempty"`
	ColdTrace bool    `json:"cold_trace,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// Manifest is the JSON run record GridTelemetry writes after a grid:
// what ran (digest of the cell identities), how it went per cell, and
// the counter totals.
type Manifest struct {
	Label        string            `json:"label,omitempty"`
	ConfigDigest string            `json:"config_digest"`
	StartTime    time.Time         `json:"start_time"`
	WallMs       float64           `json:"wall_ms"`
	CellsTotal   int               `json:"cells_total"`
	CellsFailed  int               `json:"cells_failed"`
	Insts        uint64            `json:"insts_total"`
	Meta         map[string]string `json:"meta,omitempty"`
	Counters     map[string]uint64 `json:"counters"`
	Activity     map[string]uint64 `json:"activity,omitempty"`
	Cells        []ManifestCell    `json:"cells"`
}

// BuildManifest assembles the manifest from everything observed so
// far. The config digest is the SHA-256 over the sorted cell
// identities (kernel, config, seed, policy), so two runs of the same
// grid agree on it regardless of completion order or parallelism.
func (g *GridTelemetry) BuildManifest() Manifest {
	g.mu.Lock()
	cells := append([]ManifestCell(nil), g.cells...)
	act := g.activity
	insts := g.insts
	g.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool { return cells[i].Index < cells[j].Index })

	h := sha256.New()
	failed := 0
	for _, c := range cells {
		fmt.Fprintf(h, "%s|%s|%d|%s\n", c.Kernel, c.Config, c.Seed, c.Policy)
		if c.Error != "" {
			failed++
		}
	}
	m := Manifest{
		Label:        g.Label,
		ConfigDigest: hex.EncodeToString(h.Sum(nil)),
		StartTime:    g.start,
		WallMs:       float64(time.Since(g.start).Microseconds()) / 1000,
		CellsTotal:   len(cells),
		CellsFailed:  failed,
		Insts:        insts,
		Meta:         g.Meta,
		Counters:     g.reg.Snapshot(),
		Cells:        cells,
	}
	if act.RegWriteTotal() > 0 || act.RegReadTotal() > 0 {
		m.Activity = map[string]uint64{
			"reg_reads":        act.RegReadTotal(),
			"reg_writes":       act.RegWriteTotal(),
			"wakeup_events":    act.WakeupTotal(),
			"bypass_drives":    act.BypassDriveTotal(),
			"bypass_uses":      act.BypassUseTotal(),
			"moves":            act.Moves,
			"free_list_stalls": act.FreeListStallTotal(),
		}
	}
	return m
}

// WriteManifest writes the run manifest as indented JSON.
func (g *GridTelemetry) WriteManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g.BuildManifest())
}

// HostTrace returns the worker-pool Chrome trace events accumulated so
// far (pid 1, one tid per worker, one slice per cell).
func (g *GridTelemetry) HostTrace() []TraceEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]TraceEvent(nil), g.events...)
}

// WriteHostTrace writes the worker-pool trace as Perfetto-loadable
// Chrome trace JSON.
func (g *GridTelemetry) WriteHostTrace(w io.Writer) error {
	return WriteTrace(w, g.HostTrace())
}

// Spans returns the per-cell "grid.cell" spans recorded so far,
// oldest first.
func (g *GridTelemetry) Spans() []otrace.Span {
	return g.tracer.Snapshot()
}

// WriteSpans writes the recorded spans as an otrace document (the
// wsrsbench -spans artifact; same wire shape as the daemon's
// /v1/jobs/{id}/trace endpoint, validated by telcheck -spans).
func (g *GridTelemetry) WriteSpans(w io.Writer) error {
	doc := otrace.NewDocument(g.trace, g.Spans())
	doc.Label = g.Label
	doc.Evicted = g.tracer.Total() - uint64(g.tracer.Len())
	return otrace.WriteDocument(w, doc)
}
