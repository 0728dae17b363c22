package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"wsrs/internal/explore"
	"wsrs/internal/otrace"
	"wsrs/internal/telemetry"
)

// Explore metric families.
const (
	mExploreJobs      = "wsrsd_explore_jobs_total"
	helpExploreJobs   = "explore jobs by outcome (done, failed, canceled, rejected, invalid)"
	mExploreActive    = "wsrsd_explore_active"
	helpExploreActive = "explore jobs accepted and not yet terminal"
	mExplorePoints    = "wsrsd_explore_points_total"
	helpExplorePoints = "design points by disposition (evaluated, pruned)"
)

// ExploreRequest is the body of POST /v1/explore: a design-space
// exploration (space, strategy, knobs — see explore.Request) plus the
// serving label.
type ExploreRequest struct {
	explore.Request
	Label string `json:"label,omitempty"`
}

// ExploreStatus is the explore-job record served by GET
// /v1/explore/{id}.
type ExploreStatus struct {
	ID      string `json:"id"`
	Label   string `json:"label,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	State   string `json:"state"`
	// Strategy and SpaceDigest identify what is being searched.
	Strategy    string     `json:"strategy"`
	SpaceDigest string     `json:"space_digest"`
	Created     time.Time  `json:"created"`
	Finished    *time.Time `json:"finished,omitempty"`
	// Phase is the search phase currently running ("enumerate",
	// "prefilter", "evaluate", "round 2/3", "frontier").
	Phase string `json:"phase,omitempty"`
	// CellsTotal is the admission-time upper bound on simulations
	// (selected points x kernels); Evaluated/Pruned/FrontierSize are
	// the live search counters.
	CellsTotal   int `json:"cells_total"`
	Evaluated    int `json:"points_evaluated"`
	Pruned       int `json:"points_pruned"`
	FrontierSize int `json:"frontier_size"`
	// CacheHits counts cells served from the content-addressed result
	// cache instead of simulated.
	CacheHits int64  `json:"cache_hits"`
	Error     string `json:"error,omitempty"`
}

// ExploreEvent is one entry of the explore event stream: a phase
// transition, a progress tick, or the job reaching a terminal state.
type ExploreEvent struct {
	Type      string         `json:"type"` // "phase", "progress" or "job"
	Phase     string         `json:"phase,omitempty"`
	Evaluated int            `json:"points_evaluated"`
	Pruned    int            `json:"points_pruned"`
	Frontier  int            `json:"frontier_size"`
	Job       *ExploreStatus `json:"job,omitempty"`
}

// exploreJob is the exploration kind's record: the shared lifecycle
// plus the search state. It implements explore.Observer: the search
// goroutine's phase and progress callbacks update the record, emit
// span-per-phase traces and append SSE events.
type exploreJob struct {
	lifecycle[ExploreEvent]

	tracer *otrace.Recorder
	req    explore.Request

	spaceDigest string
	cellsTotal  int

	phase     string
	evaluated int
	pruned    int
	frontier  int
	cacheHits int64
	rendered  []byte
	phaseSpan otrace.Span
	phaseOpen bool
}

// Phase implements explore.Observer: close the previous phase span,
// open the next, and emit the phase event.
func (x *exploreJob) Phase(name string) {
	x.mu.Lock()
	if x.phaseOpen {
		x.tracer.End(&x.phaseSpan)
	}
	x.phaseSpan = x.tracer.Begin("explore."+name, x.rootCtx())
	x.phaseOpen = true
	x.phase = name
	x.appendLocked(ExploreEvent{Type: "phase", Phase: name,
		Evaluated: x.evaluated, Pruned: x.pruned, Frontier: x.frontier})
	x.mu.Unlock()
}

// Progress implements explore.Observer.
func (x *exploreJob) Progress(evaluated, pruned, frontier int) {
	x.mu.Lock()
	x.evaluated, x.pruned, x.frontier = evaluated, pruned, frontier
	x.appendLocked(ExploreEvent{Type: "progress", Phase: x.phase,
		Evaluated: evaluated, Pruned: pruned, Frontier: frontier})
	x.mu.Unlock()
}

// closePhase ends a dangling phase span once the search returns.
func (x *exploreJob) closePhase() {
	x.mu.Lock()
	if x.phaseOpen {
		x.tracer.End(&x.phaseSpan)
		x.phaseOpen = false
	}
	x.mu.Unlock()
}

func (x *exploreJob) addCacheHits(n int64) {
	x.mu.Lock()
	x.cacheHits += n
	x.mu.Unlock()
}

func (x *exploreJob) status() ExploreStatus {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.statusLocked()
}

func (x *exploreJob) view(bool) any { return x.status() }

func (x *exploreJob) statusLocked() ExploreStatus {
	st := ExploreStatus{
		ID: x.id, Label: x.label, TraceID: otrace.FormatTraceID(x.trace),
		State: x.state, Strategy: x.req.Strategy, SpaceDigest: x.spaceDigest,
		Created: x.created, Phase: x.phase,
		CellsTotal: x.cellsTotal, Evaluated: x.evaluated, Pruned: x.pruned,
		FrontierSize: x.frontier, CacheHits: x.cacheHits, Error: x.err,
	}
	if !x.finished.IsZero() {
		t := x.finished
		st.Finished = &t
	}
	return st
}

// end moves the exploration to a terminal state and emits the job
// event.
func (x *exploreJob) end(state, errMsg string) {
	x.finish(state, errMsg, func() ExploreEvent {
		x.phase = ""
		st := x.statusLocked()
		return ExploreEvent{Type: "job", Evaluated: st.Evaluated,
			Pruned: st.Pruned, Frontier: st.FrontierSize, Job: &st}
	})
}

// document returns the rendered frontier document once the job is done.
func (x *exploreJob) document() ([]byte, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.rendered, x.state == StateDone
}

// serverEvaluator runs explore cells through the daemon's job
// machinery: each batch reserves its cells like a job of the same size
// and resolves them through resolveCells — content-addressed cache,
// then the singleflight + worker-pool path every grid cell takes
// (which in coordinator mode scatters across the fleet via the
// configured CellRunner). The cells carry the same identities a grid
// job would give them, so both job kinds share one cache address per
// simulation.
type serverEvaluator struct {
	s *Server
	x *exploreJob
}

func (e *serverEvaluator) Evaluate(ctx context.Context, cells []explore.Cell, opts explore.EvalOpts) ([]explore.Outcome, error) {
	ids := make([]CellID, len(cells))
	for i, c := range cells {
		ids[i] = CellID{
			Kernel: c.Kernel, Config: string(c.Config), Policy: c.Policy,
			Mods: c.Mods, Seed: opts.Seed, Warmup: opts.Warmup,
			Measure: opts.Measure,
		}
	}
	if err := e.s.reservePending(len(ids)); err != nil {
		return nil, err
	}
	// The batch is an unlisted job-shaped record: never in /v1/jobs or
	// /debug/slow, its cell spans hanging off the exploration's root.
	b := newJob("", "", ctx, ids, e.s.tracer, e.x.rootCtx())
	b.root = e.x.root
	defer b.cancel()
	e.s.resolveCells(b)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	outs := make([]explore.Outcome, len(ids))
	var hits int64
	for i, c := range b.cells {
		outs[i] = explore.Outcome{Result: b.results[i], Cached: c.Cache == CacheHit}
		if c.Error != "" {
			outs[i].Err = errors.New(c.Error)
		}
		if outs[i].Cached {
			hits++
		}
	}
	e.x.addCacheHits(hits)
	return outs, nil
}

// exploreWorkload sizes an exploration before any state is created:
// the canonical space digest and the upper bound on simulations per
// evaluation batch (selected points x kernels).
func exploreWorkload(r *explore.Request) (digest string, cells int) {
	canon := r.Space.Canon()
	points, _ := canon.Enumerate()
	selected := len(points)
	if r.Strategy == explore.StrategyRandom && r.Samples < selected {
		selected = r.Samples
	}
	return canon.Digest(), selected * len(canon.Kernels)
}

// handleExploreSubmit admits an exploration: the request validates,
// its measure stays within the MaxMeasure cap, its space enumerates to
// at least one point and its largest batch fits the queue. Nothing is
// reserved up front — each evaluation batch reserves its own cells.
func (s *Server) handleExploreSubmit(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	var digest string
	var cells int
	s.explores.admit(w, r, &req, func() (int, error) {
		req.Request.Normalize()
		if errs := req.Request.Validate(); len(errs) > 0 {
			// The first field error's detail (field, valid set) leads;
			// the message enumerates them all.
			msgs := make([]string, len(errs))
			for i, fe := range errs {
				msgs[i] = fe.Error()
			}
			return 0, &RequestError{Field: errs[0].Field, Msg: strings.Join(msgs, "; "), Valid: errs[0].Valid}
		}
		if s.opts.MaxMeasure > 0 && req.Request.Measure > s.opts.MaxMeasure {
			return 0, &RequestError{Field: "measure_insts",
				Msg: fmt.Sprintf("measure %d exceeds the server cap %d", req.Request.Measure, s.opts.MaxMeasure)}
		}
		digest, cells = exploreWorkload(&req.Request)
		switch {
		case cells == 0:
			return 0, &RequestError{Field: "space", Msg: "space enumerates to zero simulable points"}
		case cells > s.opts.MaxQueuedCells:
			// A space whose largest batch cannot ever fit the queue is
			// refused outright rather than accepted to fail.
			return 0, &admissionError{
				msg:     fmt.Sprintf("space needs %d concurrent cells, above the queue cap", cells),
				pending: s.pending.Load(), cap: s.opts.MaxQueuedCells}
		}
		return 0, nil
	}, func(id string, tc otrace.Ctx) (*exploreJob, []slog.Attr) {
		x := &exploreJob{tracer: s.tracer, req: req.Request, spaceDigest: digest, cellsTotal: cells}
		x.init(id, req.Label, s.ctx, s.tracer, tc)
		return x, []slog.Attr{
			slog.String("label", req.Label),
			slog.String("strategy", req.Strategy),
			slog.String("space_digest", digest),
			slog.Int("cells", cells),
		}
	})
}

// run drives an accepted exploration to a terminal state and closes it.
func (x *exploreJob) run(s *Server) {
	x.setRunning()
	doc, err := explore.Run(x.ctx, x.req, &serverEvaluator{s: s, x: x}, x)
	x.closePhase()

	switch {
	case err == nil:
		rendered, rerr := doc.Render()
		if rerr != nil {
			x.end(StateFailed, rerr.Error())
			break
		}
		x.mu.Lock()
		x.rendered = rendered
		x.evaluated = doc.Evaluated
		x.pruned = len(doc.PrunedSet)
		x.frontier = len(doc.Frontier)
		x.mu.Unlock()
		s.reg.Counter(mExplorePoints+telemetry.Labels("disposition", "evaluated"), helpExplorePoints).Add(uint64(doc.Evaluated))
		s.reg.Counter(mExplorePoints+telemetry.Labels("disposition", "pruned"), helpExplorePoints).Add(uint64(len(doc.PrunedSet)))
		x.end(StateDone, "")
	case x.ctx.Err() != nil || errors.Is(err, context.Canceled):
		x.end(StateCanceled, "canceled")
	default:
		x.end(StateFailed, err.Error())
	}

	st := x.status()
	x.close(s, &s.explores.kind, st.State, otrace.Now(), func(root *otrace.Span) {
		root.SetStr("strategy", x.req.Strategy)
		root.SetInt("evaluated", int64(st.Evaluated))
		root.SetInt("pruned", int64(st.Pruned))
		root.SetInt("frontier", int64(st.FrontierSize))
	}, slog.Int("evaluated", st.Evaluated), slog.Int("pruned", st.Pruned),
		slog.Int("frontier", st.FrontierSize), slog.Int64("cache_hits", st.CacheHits))
}

// handleExploreFrontier serves the finished job's frontier document
// verbatim — the deterministic JSON explore.Document.Render produced,
// byte-identical across runs, hosts and evaluators.
func (s *Server) handleExploreFrontier(w http.ResponseWriter, r *http.Request, x *exploreJob) {
	doc, done := x.document()
	if !done {
		s.writeError(w, r, http.StatusConflict, ErrorEnvelope{
			Msg: fmt.Sprintf("explore job %s is %s; the frontier requires state %q",
				x.id, x.status().State, StateDone)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(doc)
}
