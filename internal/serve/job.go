package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wsrs"
	"wsrs/internal/otrace"
)

// JobRequest is the body of POST /v1/jobs. A request names either a
// predefined experiment (figure4, figure5, energy — expanded
// server-side exactly like the wsrsbench drivers) or an explicit cell
// list; the scalar knobs apply to every cell that does not override
// them.
type JobRequest struct {
	// Experiment selects a named grid: "figure4" (kernels x the
	// Figure 4 configurations), "figure5" (kernels x the two WSRS
	// policies) or "energy" (the figure4 cells, whose results are
	// priced client-side). Empty means Cells is authoritative.
	Experiment string `json:"experiment,omitempty"`
	// Kernels restricts a named experiment to a benchmark subset
	// (nil = all twelve).
	Kernels []string `json:"kernels,omitempty"`
	// Configs restricts figure4/energy to a configuration subset
	// (nil = the paper's six).
	Configs []string `json:"configs,omitempty"`
	// Cells is the explicit grid for requests without Experiment.
	Cells []CellSpec `json:"cells,omitempty"`

	Warmup  uint64 `json:"warmup,omitempty"`
	Measure uint64 `json:"measure,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// Label travels into the job record and the metrics-free event
	// stream; optional.
	Label string `json:"label,omitempty"`
}

// CellSpec is one explicit cell of a JobRequest; zero Seed inherits
// the request seed.
type CellSpec struct {
	Kernel string `json:"kernel"`
	Config string `json:"config"`
	Policy string `json:"policy,omitempty"`
	// Mods is a canonical machine-modification string (see
	// wsrs.ParseMods) layered on the named configuration; the
	// cross-field combination is validated up front by
	// wsrs.ValidateCell.
	Mods string `json:"mods,omitempty"`
	Seed int64  `json:"seed,omitempty"`
}

// RequestError is a structured 400: which field of the request is
// wrong, why, and what would have been accepted.
type RequestError struct {
	Field string   `json:"field"`
	Msg   string   `json:"error"`
	Valid []string `json:"valid,omitempty"`
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("%s: %s", e.Field, e.Msg)
}

// defaults mirror wsrs.SimOpts.withDefaults so the content address of
// an implicit-default request equals the explicit spelling.
const (
	defaultWarmup  = 20_000
	defaultMeasure = 60_000
)

// expand validates a request up front — before any queue slot is
// consumed or simulation starts — and normalizes it into the cell
// identities to run. Every failure is a *RequestError naming the
// offending field and the valid choices.
func (r *JobRequest) expand() ([]CellID, error) {
	warmup, measure, seed := r.Warmup, r.Measure, r.Seed
	if warmup == 0 {
		warmup = defaultWarmup
	}
	if measure == 0 {
		measure = defaultMeasure
	}
	if seed == 0 {
		seed = 1
	}

	if r.Experiment != "" && len(r.Cells) > 0 {
		return nil, &RequestError{Field: "experiment",
			Msg: "a request names either an experiment or explicit cells, not both"}
	}

	var cells []CellSpec
	switch r.Experiment {
	case "":
		if len(r.Cells) == 0 {
			return nil, &RequestError{Field: "cells",
				Msg:   "empty job: name an experiment or list cells",
				Valid: []string{"figure4", "figure5", "energy"}}
		}
		if len(r.Configs) > 0 || len(r.Kernels) > 0 {
			return nil, &RequestError{Field: "kernels",
				Msg: "kernels/configs filter named experiments; explicit jobs list cells directly"}
		}
		cells = r.Cells
	case "figure4", "energy":
		confs := r.Configs
		if confs == nil {
			for _, c := range wsrs.Figure4Configs() {
				confs = append(confs, string(c))
			}
		}
		for _, k := range kernelsOrAll(r.Kernels) {
			for _, c := range confs {
				cells = append(cells, CellSpec{Kernel: k, Config: c})
			}
		}
	case "figure5":
		if len(r.Configs) > 0 {
			return nil, &RequestError{Field: "configs",
				Msg: "figure5 fixes its configurations (the two WSRS policies)"}
		}
		for _, k := range kernelsOrAll(r.Kernels) {
			cells = append(cells,
				CellSpec{Kernel: k, Config: string(wsrs.ConfWSRSRC512)},
				CellSpec{Kernel: k, Config: string(wsrs.ConfWSRSRM512)})
		}
	default:
		return nil, &RequestError{Field: "experiment",
			Msg:   fmt.Sprintf("unknown experiment %q", r.Experiment),
			Valid: []string{"figure4", "figure5", "energy"}}
	}

	out := make([]CellID, len(cells))
	for i, c := range cells {
		field := func(name string) string { return fmt.Sprintf("cells[%d].%s", i, name) }
		if err := wsrs.ValidateKernelNames([]string{c.Kernel}); err != nil {
			return nil, &RequestError{Field: field("kernel"),
				Msg: err.Error(), Valid: wsrs.Kernels()}
		}
		conf, err := wsrs.ValidateConfigName(c.Config)
		if err != nil {
			return nil, &RequestError{Field: field("config"),
				Msg: err.Error(), Valid: configNames()}
		}
		if err := wsrs.ValidatePolicyName(c.Policy); err != nil {
			return nil, &RequestError{Field: field("policy"),
				Msg: err.Error(), Valid: wsrs.PolicyNames()}
		}
		if c.Mods != "" {
			if err := wsrs.ValidateMods(c.Mods); err != nil {
				return nil, &RequestError{Field: field("mods"),
					Msg: err.Error(), Valid: wsrs.ModKeys()}
			}
			// Cross-field check: the modified machine must build, and the
			// policy must fit it (e.g. only RR steers a non-4-cluster
			// machine).
			if err := wsrs.ValidateCell(conf, c.Policy, c.Mods); err != nil {
				return nil, &RequestError{Field: field("mods"), Msg: err.Error()}
			}
		}
		cellSeed := c.Seed
		if cellSeed == 0 {
			cellSeed = seed
		}
		out[i] = CellID{
			Kernel: c.Kernel, Config: string(conf), Policy: c.Policy,
			Mods: c.Mods,
			Seed: cellSeed, Warmup: warmup, Measure: measure,
		}
	}
	return out, nil
}

func kernelsOrAll(names []string) []string {
	if len(names) == 0 {
		return wsrs.Kernels()
	}
	return names
}

func configNames() []string {
	out := make([]string, 0, len(wsrs.AllConfigs()))
	for _, c := range wsrs.AllConfigs() {
		out = append(out, string(c))
	}
	return out
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Cache dispositions of one cell.
const (
	CacheHit       = "hit"       // served from the result cache
	CacheCoalesced = "coalesced" // joined an identical in-flight cell
	CacheMiss      = "miss"      // simulated here
	CachePeer      = "peer"      // fetched from a peer daemon's cache
)

// CellStatus is the per-cell view in GET /v1/jobs/{id} and the events
// stream.
type CellStatus struct {
	Index  int    `json:"index"`
	Cell   CellID `json:"cell"`
	Digest string `json:"digest"`
	State  string `json:"state"`
	// Cache reports how the result was obtained (hit / coalesced /
	// miss); empty until the cell resolves.
	Cache  string  `json:"cache,omitempty"`
	IPC    float64 `json:"ipc,omitempty"`
	Insts  uint64  `json:"insts,omitempty"`
	Cycles int64   `json:"cycles,omitempty"`
	WallMs float64 `json:"wall_ms,omitempty"`
	Error  string  `json:"error,omitempty"`
	// Backend relays the originating member's ErrorEnvelope when the
	// cell failed on a fleet backend — the member's own trace_id and
	// identity, not a coordinator re-wrap.
	Backend *ErrorEnvelope `json:"backend_error,omitempty"`
}

// JobStatus is the job record served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	// TraceID identifies the job's span trace: grep it in the
	// structured logs, or GET /v1/jobs/{id}/trace for the span tree.
	TraceID     string       `json:"trace_id,omitempty"`
	State       string       `json:"state"`
	Created     time.Time    `json:"created"`
	Finished    *time.Time   `json:"finished,omitempty"`
	CellsTotal  int          `json:"cells_total"`
	CellsDone   int          `json:"cells_done"`
	CellsFailed int          `json:"cells_failed"`
	Cells       []CellStatus `json:"cells"`
	Error       string       `json:"error,omitempty"`
}

// Event is one entry of the per-job event stream: a cell resolving,
// or the job reaching a terminal state.
type Event struct {
	Type string      `json:"type"` // "cell" or "job"
	Cell *CellStatus `json:"cell,omitempty"`
	Job  *JobStatus  `json:"job,omitempty"`
}

// job is the grid kind's record: the shared lifecycle plus the cells,
// their results and the phase decomposition.
type job struct {
	lifecycle[Event]

	// cellSpans are the preallocated per-cell span IDs.
	cellSpans []otrace.SpanID

	cells   []CellStatus
	results []wsrs.Result
	phaseNs map[string]int64
}

// newJob builds the record of ids, started under parent in trace
// context tc.
func newJob(id, label string, parent context.Context, ids []CellID, tr *otrace.Recorder, tc otrace.Ctx) *job {
	j := &job{
		cellSpans: make([]otrace.SpanID, len(ids)),
		cells:     make([]CellStatus, len(ids)),
		results:   make([]wsrs.Result, len(ids)),
		phaseNs:   make(map[string]int64, len(PhaseNames)),
	}
	j.init(id, label, parent, tr, tc)
	for i, id := range ids {
		j.cells[i] = CellStatus{Index: i, Cell: id, Digest: id.Digest(), State: StateQueued}
		j.cellSpans[i] = tr.AllocID()
	}
	return j
}

// cellCtx is the context that parents per-cell spans to cell i's
// (future) cell span.
func (j *job) cellCtx(i int) otrace.Ctx { return otrace.Ctx{Trace: j.trace, Span: j.cellSpans[i]} }

// addPhase accrues one phase duration into the job's decomposition
// (the phase_ms map of /debug/slow and the finish log line).
func (j *job) addPhase(phase string, d time.Duration) {
	j.mu.Lock()
	j.phaseNs[phase] += int64(d)
	j.mu.Unlock()
}

// phaseMs snapshots the accrued decomposition in milliseconds.
func (j *job) phaseMs() map[string]float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]float64, len(j.phaseNs))
	for k, v := range j.phaseNs {
		out[k] = float64(v/1e3) / 1e3
	}
	return out
}

// status snapshots the public view under the lock.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// view is the job's JSON status; the list stays cheap without cells.
func (j *job) view(list bool) any {
	st := j.status()
	if list {
		st.Cells = nil
	}
	return st
}

func (j *job) statusLocked() JobStatus {
	s := JobStatus{
		ID: j.id, Label: j.label, TraceID: otrace.FormatTraceID(j.trace),
		State: j.state, Created: j.created,
		CellsTotal: len(j.cells), Error: j.err,
		Cells: append([]CellStatus(nil), j.cells...),
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	for _, c := range j.cells {
		switch c.State {
		case StateDone:
			s.CellsDone++
		case StateFailed:
			s.CellsFailed++
		}
	}
	return s
}

// resolveCell records one cell outcome and appends its event.
func (j *job) resolveCell(i int, disposition string, res wsrs.Result, wall time.Duration, err error) {
	j.mu.Lock()
	c := &j.cells[i]
	c.Cache = disposition
	c.WallMs = float64(wall.Microseconds()) / 1000
	if err != nil {
		c.State = StateFailed
		c.Error = err.Error()
		var be *BackendError
		if errors.As(err, &be) {
			c.Backend = be.Envelope()
		}
	} else {
		c.State = StateDone
		c.IPC = res.IPC
		c.Insts = res.Insts
		c.Cycles = res.Cycles
		j.results[i] = res
	}
	j.appendLocked(Event{Type: "cell", Cell: &j.cells[i]})
	j.mu.Unlock()
}

// end moves the job to a terminal state and emits the job event.
func (j *job) end(state, errMsg string) {
	j.finish(state, errMsg, func() Event {
		st := j.statusLocked()
		return Event{Type: "job", Job: &st}
	})
}

// snapshotResults copies the per-cell results in cell order.
func (j *job) snapshotResults() []wsrs.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]wsrs.Result(nil), j.results...)
}
