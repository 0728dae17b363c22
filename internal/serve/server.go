package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsrs"
	"wsrs/internal/otrace"
	flightrec "wsrs/internal/otrace/flight"
	"wsrs/internal/telemetry"
)

// Options sizes the daemon. The zero value is a sane single-host
// deployment: GOMAXPROCS workers, 1024-cell queue, a 4096-entry
// memory-only cache.
type Options struct {
	// Workers bounds the simulation worker pool (<= 0 selects
	// GOMAXPROCS). The pool is shared by every job, so one huge grid
	// cannot starve the daemon.
	Workers int
	// MaxQueuedCells is the admission-control cap: a job whose cells
	// would push the pending total past it is rejected with 429 +
	// Retry-After instead of being queued.
	MaxQueuedCells int
	// CachePath persists the result cache as JSONL ("" = memory
	// only); CacheEntries bounds the LRU (<= 0 selects 4096).
	CachePath    string
	CacheEntries int
	// MaxMeasure caps the per-cell measured-instruction budget a
	// request may ask for (0 = unbounded).
	MaxMeasure uint64
	// KeepJobs bounds the terminal-job history (<= 0 selects 256).
	KeepJobs int
	// TraceSpans bounds the span ring the job lifecycle records into
	// (<= 0 selects otrace.DefaultCapacity). Tracing is always on —
	// the span hot path is allocation-free, so there is nothing to
	// turn off.
	TraceSpans int
	// SlowJobs bounds the /debug/slow ring of slowest recent jobs
	// (<= 0 selects 32).
	SlowJobs int
	// PhaseSamples bounds the /v1/phases sample log (<= 0 selects
	// 8192).
	PhaseSamples int
	// Logger receives the structured job-lifecycle and access log
	// (nil discards).
	Logger *slog.Logger
	// Registry overrides the daemon's metric registry (nil creates a
	// private one). wsrsd in coordinator mode passes the registry its
	// fleet.Coordinator already counts on, so one /metrics scrape
	// shows admission, cache and fleet behaviour together.
	Registry *telemetry.Registry
	// Runner, when non-nil, replaces the local simulation of a cache
	// miss: the worker pool calls it instead of wsrs.RunGrid. This is
	// the coordinator hook — wsrsd -peers wires a fleet.Coordinator
	// here, so the whole job API (admission, coalescing, cache, drain)
	// sits unchanged in front of a distributed backend set. The ctx is
	// canceled when every job waiting on the cell has abandoned it.
	Runner CellRunner
	// Peers, when non-nil, inserts the peer-fetch cache tier between
	// the local cache and simulation: a missing digest is first asked
	// of its consistent-hash home peer (GET /v1/cache/{digest}) and
	// only simulated locally if no peer holds it. Ignored when Runner
	// is set — a coordinator already routes cells to their cache home.
	Peers PeerFetcher
	// Process labels this daemon in fleet-wide observability output:
	// stitched trace tracks, federated metric labels, flight-recorder
	// snapshots ("" selects "wsrsd"; a coordinator passes
	// "coordinator", members their listen address).
	Process string
	// Tracer overrides the daemon's span recorder (nil creates a
	// private one sized by TraceSpans). wsrsd in coordinator mode
	// passes the recorder its fleet.Coordinator records into, so the
	// coordinator's fleet spans and the job lifecycle share one ring —
	// the precondition for stitched fleet traces.
	Tracer *otrace.Recorder
	// Flight overrides the black-box flight recorder (nil creates a
	// memory-only one). wsrsd wires one configured with -postmortem-dir
	// and shares it with the fleet coordinator.
	Flight *flightrec.Recorder
	// Fleet, when non-nil, mounts the fleet observability surface
	// (GET /v1/fleet/metrics, /v1/fleet/status) and upgrades
	// GET /v1/jobs/{id}/trace to the stitched multi-process document.
	Fleet FleetObserver
	// FleetScrapeTimeout bounds each federation fan-out (<= 0 selects
	// 2s).
	FleetScrapeTimeout time.Duration
}

// CellRunner resolves one cell somewhere other than the local worker
// pool (a fleet coordinator scattering to remote backends). It must
// honor ctx cancellation promptly and return the cell's wall time.
type CellRunner interface {
	RunCell(ctx context.Context, id CellID) (wsrs.Result, time.Duration, error)
}

// PeerFetcher looks a content address up in a peer's result cache,
// reporting ok=false on any miss or peer failure — a peer-fetch
// failure is never a cell failure, just a fallback to local work.
type PeerFetcher interface {
	FetchPeer(ctx context.Context, digest string) (wsrs.Result, bool)
}

// cellTask is one simulation the worker pool owes: the flight every
// waiting job subscribed to.
type cellTask struct {
	id     CellID
	digest string
	fl     *flight
}

// flight is one in-flight simulation shared by every job that asked
// for the same content address while it ran (singleflight): the first
// request creates and enqueues it, duplicates subscribe, and a
// thundering herd of identical jobs costs one simulation.
type flight struct {
	// ctx is the leader cell's span context: the queue-wait and
	// simulate spans parent here, and coalesced waiters link their
	// wait spans to it across traces.
	ctx otrace.Ctx
	// owner is the job that created the flight; its phase accounting
	// absorbs the queue and simulate time.
	owner *job
	// enqueued stamps when the task entered the worker queue
	// (otrace.Now), opening the queue-wait span.
	enqueued int64
	// cancel closes when the last waiter abandons the flight: the
	// in-flight simulation (local or remote) aborts instead of running
	// to completion for nobody.
	cancel chan struct{}

	mu      sync.Mutex
	waiters int
	dead    bool // every waiter left; joiners must start a fresh flight
	via     string
	done    chan struct{}
	res     wsrs.Result
	err     error
	wall    time.Duration
}

// join subscribes one more waiter. It fails on a dead flight — one
// whose cancellation already fired — so a late-arriving duplicate
// starts a fresh flight instead of inheriting a canceled result.
func (f *flight) join() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return false
	}
	f.waiters++
	return true
}

// abandon drops one waiter; the last one out cancels the flight.
func (f *flight) abandon() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.waiters--
	if f.waiters <= 0 && !f.dead {
		f.dead = true
		close(f.cancel)
	}
}

func (f *flight) abandoned() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead || f.waiters <= 0
}

// resolvedVia records how the flight's result was obtained (peer
// fetch vs local simulation) for the waiters' cell dispositions.
func (f *flight) resolvedVia(via string) {
	f.mu.Lock()
	f.via = via
	f.mu.Unlock()
}

func (f *flight) disposition() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.via
}

func (f *flight) resolve(res wsrs.Result, err error, wall time.Duration) {
	f.res, f.err, f.wall = res, err, wall
	close(f.done)
}

// Server is the wsrsd daemon core: one job model over a bounded worker
// pool layered on wsrs.RunGrid, with the content-addressed result
// cache, request coalescing, admission control and graceful drain.
// Jobs come in two kinds sharing that model (lifecycle.go): cell grids
// (POST /v1/jobs) and design-space explorations (POST /v1/explore),
// whose evaluation batches resolve cells through the same per-cell
// loop as a grid. Build with New, mount Handler, stop with Drain.
type Server struct {
	opts  Options
	reg   *telemetry.Registry
	cache *Cache

	tracer  *otrace.Recorder
	fr      *flightrec.Recorder
	process string
	phases  *phaseLog
	slow    *slowRing
	log     *slog.Logger

	phaseHist map[string]*telemetry.Histogram // wsrsd_phase_us by phase

	ctx    context.Context // parent of every job context
	cancel context.CancelFunc

	queue    chan *cellTask
	workerWG sync.WaitGroup
	jobWG    sync.WaitGroup

	pending  atomic.Int64 // cells accepted but not yet resolved
	draining atomic.Bool
	stopOnce sync.Once

	mu      sync.Mutex
	flights map[string]*flight

	jobs     *table[*job]
	explores *table[*exploreJob]
}

// New builds the daemon and starts its worker pool.
func New(o Options) (*Server, error) {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueuedCells <= 0 {
		o.MaxQueuedCells = 1024
	}
	if o.KeepJobs <= 0 {
		o.KeepJobs = 256
	}
	cache, err := OpenCache(o.CachePath, o.CacheEntries)
	if err != nil {
		return nil, err
	}
	lg := o.Logger
	if lg == nil {
		lg = discardLogger()
	}
	reg := o.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	process := o.Process
	if process == "" {
		process = "wsrsd"
	}
	tracer := o.Tracer
	if tracer == nil {
		tracer = otrace.NewRecorder(o.TraceSpans)
	}
	fr := o.Flight
	if fr == nil {
		fr = flightrec.New(flightrec.Options{Process: process, Spans: tracer})
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    o,
		reg:     reg,
		cache:   cache,
		tracer:  tracer,
		fr:      fr,
		process: process,
		phases:  newPhaseLog(o.PhaseSamples),
		slow:    newSlowRing(o.SlowJobs),
		log:     lg,
		ctx:     ctx,
		cancel:  cancel,
		queue:   make(chan *cellTask, o.MaxQueuedCells+1),
		flights: map[string]*flight{},
	}
	s.jobs = newTable[*job](s, kind{
		route: "/v1/jobs", prefix: "j", noun: "job", what: "job", admission: "admission",
		active: reg.Gauge(mJobsActive, helpJobsActive),
	}, mJobs, helpJobs)
	s.explores = newTable[*exploreJob](s, kind{
		route: "/v1/explore", prefix: "x", noun: "explore", what: "explore job", admission: "explore.admission",
		active: reg.Gauge(mExploreActive, helpExploreActive),
	}, mExploreJobs, helpExploreJobs)
	s.initMetrics()
	for w := 0; w < o.Workers; w++ {
		s.workerWG.Add(1)
		go func(worker int) {
			defer s.workerWG.Done()
			for t := range s.queue {
				s.runFlight(t, worker)
			}
		}(w)
	}
	return s, nil
}

// Tracer exposes the daemon's span recorder (tests and embedders).
func (s *Server) Tracer() *otrace.Recorder { return s.tracer }

// FlightRecorder exposes the daemon's black-box recorder (tests,
// cmd/wsrsd's fault wiring).
func (s *Server) FlightRecorder() *flightrec.Recorder { return s.fr }

// Registry exposes the daemon's metric registry (served at /metrics).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Cache exposes the result store (cmd/wsrsd reports its size on
// drain).
func (s *Server) Cache() *Cache { return s.cache }

// Handler mounts the job API on top of the shared diagnostic mux, so
// wsrsd serves the same /metrics, /debug/vars and /debug/pprof
// surface as wsrsbench -listen plus /v1/jobs and /healthz.
func (s *Server) Handler() http.Handler {
	mux := Mux(MuxOptions{
		Registry: s.reg,
		Expvar:   true,
		Pprof:    true,
		Index:    "wsrsd: POST /v1/jobs, GET /v1/jobs/{id}[/results|/events], DELETE /v1/jobs/{id}; POST /v1/explore, GET /v1/explore/{id}[/frontier|/events], DELETE /v1/explore/{id}; /metrics /healthz /debug/vars /debug/pprof/",
	})
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	s.jobs.mount(mux, s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.instrument("/v1/jobs/{id}/results", s.jobs.with(s.handleResults)))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.instrument("/v1/jobs/{id}/trace", s.jobs.with(s.handleTrace)))
	s.explores.mount(mux, s.handleExploreSubmit)
	mux.HandleFunc("GET /v1/explore/{id}/frontier", s.instrument("/v1/explore/{id}/frontier", s.explores.with(s.handleExploreFrontier)))
	mux.HandleFunc("GET /v1/cache/{digest}", s.instrument("/v1/cache/{digest}", s.handleCacheFetch))
	mux.HandleFunc("GET /v1/phases", s.instrument("/v1/phases", s.handlePhases))
	mux.HandleFunc("GET /v1/traces/{trace}", s.instrument("/v1/traces/{trace}", s.handleTraceByID))
	mux.HandleFunc("GET /debug/slow", s.handleSlow)
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	if s.opts.Fleet != nil {
		mux.HandleFunc("GET /v1/fleet/metrics", s.instrument("/v1/fleet/metrics", s.handleFleetMetrics))
		mux.HandleFunc("GET /v1/fleet/status", s.instrument("/v1/fleet/status", s.handleFleetStatus))
	}
	return AccessLog(mux, s.tracer, s.log)
}

// handleHealth reports liveness: the process is up and serving. It
// stays 200 through a drain — a draining daemon is healthy, just not
// accepting work — so supervisors don't kill a drain mid-flight.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReady reports readiness to accept NEW jobs: 503 from the
// moment the drain starts (before the listener closes), so load
// balancers and clients stop routing work at the first SIGTERM.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// ErrorEnvelope is the uniform JSON error body of every non-2xx
// response: the message, the validation detail when the request itself
// is wrong (same field/error/valid keys as *RequestError, so existing
// decoders keep working), the admission detail on 429, and the request
// trace ID so a failed call can be correlated with server logs.
type ErrorEnvelope struct {
	Msg      string   `json:"error"`
	Field    string   `json:"field,omitempty"`
	Valid    []string `json:"valid,omitempty"`
	Pending  int64    `json:"pending_cells,omitempty"`
	QueueCap int      `json:"queue_cap,omitempty"`
	TraceID  string   `json:"trace_id,omitempty"`
	// Member names the process that originated the error, so an
	// envelope a coordinator relays from a backend still points at the
	// daemon whose logs (and trace ring) hold the failure.
	Member string `json:"member,omitempty"`
}

// writeError stamps the request's trace ID and this process's identity
// into the envelope and writes it with the given status.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, env ErrorEnvelope) {
	if c := requestCtx(r).Trace; c != 0 {
		env.TraceID = otrace.FormatTraceID(c)
	}
	if env.Member == "" {
		env.Member = s.process
	}
	writeJSON(w, status, env)
}

// writeJSON writes one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleSubmit admits a grid job: the request expands to its cells,
// every cell within the MaxMeasure cap, and the job reserves one queue
// slot per cell.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	var ids []CellID
	s.jobs.admit(w, r, &req, func() (int, error) {
		var err error
		if ids, err = req.expand(); err != nil {
			return 0, err
		}
		for i, id := range ids {
			if s.opts.MaxMeasure > 0 && id.Measure > s.opts.MaxMeasure {
				return 0, &RequestError{Field: fmt.Sprintf("cells[%d].measure", i),
					Msg: fmt.Sprintf("measure %d exceeds the server cap %d", id.Measure, s.opts.MaxMeasure)}
			}
		}
		return len(ids), nil
	}, func(id string, tc otrace.Ctx) (*job, []slog.Attr) {
		return newJob(id, req.Label, s.ctx, ids, s.tracer, tc),
			[]slog.Attr{slog.String("label", req.Label), slog.Int("cells", len(ids))}
	})
}

// handleResults serves the raw per-cell wsrs.Result slice in cell
// order — the byte-identical counterpart of a direct RunGrid call
// (asserted by TestJobResultsMatchRunGrid).
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request, j *job) {
	st := j.status()
	if st.State != StateDone {
		s.writeError(w, r, http.StatusConflict, ErrorEnvelope{
			Msg: fmt.Sprintf("job %s is %s; results require state %q", j.id, st.State, StateDone)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(j.snapshotResults())
}

// handleCacheFetch serves one result out of the local content-
// addressed cache by digest — the peer-fetch tier of a fleet: a
// coordinator or member daemon asks a cell's consistent-hash home for
// the result before simulating it anywhere. 404 means "not here",
// never an error worth retrying.
func (s *Server) handleCacheFetch(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	res, ok := s.cache.Get(digest)
	if !ok {
		s.reg.Counter(mPeerServes+telemetry.Labels("outcome", "miss"), helpPeerServes).Inc()
		s.writeError(w, r, http.StatusNotFound,
			ErrorEnvelope{Msg: fmt.Sprintf("no cached result for digest %q", digest)})
		return
	}
	s.reg.Counter(mPeerServes+telemetry.Labels("outcome", "hit"), helpPeerServes).Inc()
	writeJSON(w, http.StatusOK, res)
}

// run resolves every cell of an accepted job, settles its terminal
// state and closes it: the total phase, its rank in the /debug/slow
// ring, then the shared close path.
func (j *job) run(s *Server) {
	j.setRunning()
	s.resolveCells(j)

	st := j.status()
	switch {
	case j.ctx.Err() != nil && st.State != StateDone:
		j.end(StateCanceled, "canceled")
	case st.CellsFailed > 0:
		msg := fmt.Sprintf("%d of %d cells failed", st.CellsFailed, st.CellsTotal)
		for _, c := range st.Cells {
			if c.Error != "" {
				msg = fmt.Sprintf("%s; first: %s/%s: %s", msg, c.Cell.Kernel, c.Cell.Config, c.Error)
				break
			}
		}
		j.end(StateFailed, msg)
	default:
		j.end(StateDone, "")
	}

	endNs := otrace.Now()
	total := time.Duration(endNs - j.startNs)
	s.observePhase(PhaseTotal, total)
	j.addPhase(PhaseTotal, total)
	fin := j.status()
	phaseMs := j.phaseMs()
	s.slow.add(SlowJob{
		JobID:    j.id,
		TraceID:  otrace.FormatTraceID(j.trace),
		Label:    j.label,
		State:    fin.State,
		Cells:    fin.CellsTotal,
		TotalMs:  float64(total.Microseconds()) / 1000,
		PhaseMs:  phaseMs,
		Finished: time.Now(),
	})
	j.close(s, &s.jobs.kind, fin.State, endNs, func(root *otrace.Span) {
		root.SetInt("cells", int64(fin.CellsTotal))
		if j.label != "" {
			root.SetStr("label", j.label)
		}
	}, slog.Int("cells", fin.CellsTotal), slog.Int("cells_failed", fin.CellsFailed), slog.Any("phase_ms", phaseMs))
}

// resolveCells is the one per-cell loop of both kinds: each cell of j
// is served from the cache, joins an identical in-flight cell's flight,
// or is queued on the shared worker pool, then waited on — or abandoned
// when j is canceled — and returned to the admission budget. Per-cell
// events fire as each resolves, in completion order; it returns once
// every cell has.
func (s *Server) resolveCells(j *job) {
	var wg sync.WaitGroup
	for i := range j.cells {
		id, digest := j.cells[i].Cell, j.cells[i].Digest
		cellStart := otrace.Now()
		lookup := s.tracer.Begin("cache.lookup", j.cellCtx(i))
		res, hit := s.cache.Get(digest)
		lookup.SetBool("hit", hit)
		s.tracer.End(&lookup)
		cacheDur := time.Duration(lookup.Dur())
		s.observePhase(PhaseCache, cacheDur)
		j.addPhase(PhaseCache, cacheDur)
		if hit {
			s.reg.Counter(mCacheHits, helpCacheHits).Inc()
			j.resolveCell(i, CacheHit, res, 0, nil)
			s.endCellSpan(j, i, CacheHit, cellStart)
			s.cellDone()
			continue
		}
		fl, coalesced := s.acquireFlight(id, digest, j.cellCtx(i), j)
		disposition := CacheMiss
		var waitSpan otrace.Span
		if coalesced {
			disposition = CacheCoalesced
			// The waiter's span links (not parents) to the leader
			// flight's cell span: the leader may belong to a different
			// trace, so the linkage crosses traces by attribute.
			waitSpan = s.tracer.Begin("coalesce.wait", j.cellCtx(i))
			waitSpan.SetStr("link_trace", otrace.FormatTraceID(fl.ctx.Trace))
			waitSpan.SetStr("link_span", otrace.FormatSpanID(fl.ctx.Span))
		}
		wg.Add(1)
		go func(i int, fl *flight, disposition string, waitSpan otrace.Span, cellStart int64) {
			defer wg.Done()
			select {
			case <-fl.done:
				if via := fl.disposition(); via != "" && disposition == CacheMiss {
					disposition = via // e.g. served by a peer's cache
				}
				j.resolveCell(i, disposition, fl.res, fl.wall, fl.err)
			case <-j.ctx.Done():
				fl.abandon()
				j.resolveCell(i, disposition, wsrs.Result{}, 0, context.Canceled)
			}
			if disposition == CacheCoalesced {
				s.tracer.End(&waitSpan)
				d := time.Duration(waitSpan.Dur())
				s.observePhase(PhaseCoalesce, d)
				j.addPhase(PhaseCoalesce, d)
			}
			s.endCellSpan(j, i, disposition, cellStart)
			s.cellDone()
		}(i, fl, disposition, waitSpan, cellStart)
	}
	wg.Wait()
}

// acquireFlight subscribes to the in-flight simulation for digest,
// creating and enqueueing a fresh flight when no identical cell is
// already running (singleflight). The caller, resolveCells, waits on
// the returned flight's done channel. coalesced reports whether an
// existing flight was joined. The new flight carries tctx (the
// queue-wait and simulate spans parent there) and owner (its phase
// decomposition absorbs their durations).
func (s *Server) acquireFlight(id CellID, digest string, tctx otrace.Ctx, owner *job) (*flight, bool) {
	s.mu.Lock()
	fl, coalesced := s.flights[digest]
	if coalesced && !fl.join() {
		// The in-flight leader was canceled between our map lookup
		// and the join: start over with a fresh flight.
		coalesced = false
	}
	if !coalesced {
		fl = &flight{
			ctx:      tctx,
			owner:    owner,
			enqueued: otrace.Now(),
			cancel:   make(chan struct{}),
			waiters:  1,
			done:     make(chan struct{}),
		}
		s.flights[digest] = fl
	}
	s.mu.Unlock()
	if coalesced {
		s.reg.Counter(mCoalesced, helpCoalesced).Inc()
	} else {
		s.queue <- &cellTask{id: id, digest: digest, fl: fl}
	}
	return fl, coalesced
}

// endCellSpan emits cell i's span retroactively under its preallocated
// ID, covering acceptance to resolution, so the child spans recorded
// meanwhile (cache.lookup, queue.wait, simulate, coalesce.wait)
// already point at it.
func (s *Server) endCellSpan(j *job, i int, disposition string, start int64) {
	sp := s.tracer.Make("cell", j.rootCtx(), start, otrace.Now())
	sp.ID = j.cellSpans[i]
	sp.SetInt("cell", int64(i))
	sp.SetStr("cache", disposition)
	sp.SetStr("kernel", j.cells[i].Cell.Kernel)
	sp.SetStr("config", j.cells[i].Cell.Config)
	s.tracer.Append(&sp)
}

// syncTraceMetrics reconciles the trace-ring gauges with the recorder.
func (s *Server) syncTraceMetrics() {
	s.reg.Gauge(mTraceSpans, helpTraceSpans).Set(int64(s.tracer.Len()))
	evicted := s.tracer.Total() - uint64(s.tracer.Len())
	c := s.reg.Counter(mTraceEvicted, helpTraceEvict)
	if d := evicted - c.Load(); d > 0 && d < 1<<63 {
		c.Add(d)
	}
}

func (s *Server) cellDone() {
	s.reg.Gauge(mPending, helpPending).Set(s.pending.Add(-1))
}

// runFlight resolves one coalesced cell on a pool worker: the
// peer-fetch cache tier first when one is configured, then either the
// delegated CellRunner (coordinator mode) or a local simulation
// through wsrs.RunGrid (parallelism 1: the pool supplies the
// concurrency), inheriting its panic barrier and budget plumbing. The
// queue-wait and simulate spans parent to the leader cell's span, and
// their durations accrue to the owning job's phase decomposition. The
// flight's cancel channel aborts the work mid-simulation as soon as
// the last waiting job has abandoned it.
func (s *Server) runFlight(t *cellTask, worker int) {
	if t.fl.abandoned() {
		s.removeFlight(t)
		t.fl.resolve(wsrs.Result{}, context.Canceled, 0)
		return
	}
	// The queue-wait span opened when the task was enqueued and closes
	// now that a worker picked it up.
	qsp := s.tracer.Make("queue.wait", t.fl.ctx, t.fl.enqueued, otrace.Now())
	qsp.SetInt("worker", int64(worker))
	s.tracer.Append(&qsp)
	queueDur := time.Duration(qsp.Dur())
	s.observePhase(PhaseQueue, queueDur)
	t.fl.owner.addPhase(PhaseQueue, queueDur)

	// A context that dies with the daemon or with the flight's last
	// waiter, for the remote legs (peer fetch, delegated runner).
	ctx, cancelCtx := context.WithCancel(s.ctx)
	defer cancelCtx()
	go func() {
		select {
		case <-t.fl.cancel:
			cancelCtx()
		case <-ctx.Done():
		}
	}()

	// The peer-fetch cache tier: before simulating, ask the digest's
	// consistent-hash home peer whether it already holds the result.
	if s.opts.Peers != nil && s.opts.Runner == nil {
		psp := s.tracer.Begin("cache.peer", t.fl.ctx)
		res, ok := s.opts.Peers.FetchPeer(ctx, t.digest)
		psp.SetBool("hit", ok)
		s.tracer.End(&psp)
		if ok {
			s.reg.Counter(mPeerHits, helpPeerHits).Inc()
			s.reg.Counter(mCacheStores, helpCacheStores).Inc()
			s.cache.Put(t.id, res)
			s.reg.Gauge(mCacheEntries, helpCacheEntries).Set(int64(s.cache.Len()))
			t.fl.resolvedVia(CachePeer)
			s.removeFlight(t)
			t.fl.resolve(res, nil, time.Duration(psp.Dur()))
			return
		}
		s.reg.Counter(mPeerMisses, helpPeerMisses).Inc()
	}

	sim := s.tracer.Begin("simulate", t.fl.ctx)
	sim.SetStr("kernel", t.id.Kernel)
	sim.SetStr("config", t.id.Config)
	sim.SetInt("worker", int64(worker))

	var res wsrs.Result
	var err error
	var wall time.Duration
	if s.opts.Runner != nil {
		sim.SetBool("remote", true)
		s.reg.Counter(mRunnerCells, helpRunnerCells).Inc()
		start := time.Now()
		// The simulate span's context rides the ctx so the runner (a
		// fleet coordinator) parents its fleet.cell span here and
		// injects the same trace into every backend request — the
		// cross-process half of trace stitching.
		res, wall, err = s.opts.Runner.RunCell(otrace.ContextWith(ctx, sim.Ctx()), t.id)
		if wall <= 0 {
			wall = time.Since(start)
		}
	} else {
		s.reg.Counter(mSims, helpSims).Inc()
		opts := wsrs.SimOpts{
			WarmupInsts:  t.id.Warmup,
			MeasureInsts: t.id.Measure,
			Seed:         t.id.Seed,
			Observer:     wsrs.NewTraceObserver(s.tracer, sim.Ctx()),
			Cancel:       t.fl.cancel,
		}
		cell := wsrs.GridCell{
			Kernel: t.id.Kernel,
			Config: wsrs.ConfigName(t.id.Config),
			Policy: t.id.Policy,
			Seed:   t.id.Seed,
		}
		cell, err = withMods(cell, t.id.Mods)
		if err == nil {
			start := time.Now()
			var out []wsrs.GridResult
			out, err = wsrs.RunGrid([]wsrs.GridCell{cell}, opts, 1)
			wall = time.Since(start)
			if len(out) == 1 {
				res = out[0].Result
			}
		}
	}
	s.reg.Histogram(mSimMs, helpSimMs).Observe(uint64(wall.Milliseconds()))
	canceled := err != nil && errors.Is(err, context.Canceled)
	if canceled {
		s.reg.Counter(mSimsCanceled, helpSimsCanceled).Inc()
		sim.SetStr("outcome", "canceled")
	}
	sim.SetBool("ok", err == nil)
	s.tracer.End(&sim)
	// The flight recorder keeps a per-cell summary window; a failed
	// cell additionally snapshots the black box under a reason derived
	// from the failure class (watchdog, check, panic).
	if err == nil {
		s.fr.Record(flightrec.Event{
			Kind: flightrec.KindSim, Name: "cell",
			Digest: t.digest, Value: res.Cycles,
		})
	} else if !canceled {
		s.fr.Record(flightrec.Event{
			Kind: flightrec.KindSim, Name: "cell-failed",
			Digest: t.digest, Detail: err.Error(),
		})
		s.fr.Snapshot(failureReason(err), t.digest, err.Error())
	}
	s.observePhase(PhaseSimulate, wall)
	t.fl.owner.addPhase(PhaseSimulate, wall)
	if err == nil {
		s.reg.Counter(mCacheStores, helpCacheStores).Inc()
		s.cache.Put(t.id, res)
		s.reg.Gauge(mCacheEntries, helpCacheEntries).Set(int64(s.cache.Len()))
		if s.cache.Degraded() {
			s.reg.Gauge(mCacheDegraded, helpCacheDegraded).Set(1)
		}
	}
	s.removeFlight(t)
	t.fl.resolve(res, err, wall)
}

// withMods applies a cell identity's canonical mods string to a grid
// cell. Admission validated the string, so a parse failure here means
// a corrupted identity, surfaced as the cell's error.
func withMods(cell wsrs.GridCell, mods string) (wsrs.GridCell, error) {
	if mods == "" {
		return cell, nil
	}
	ms, err := wsrs.ParseMods(mods)
	if err != nil {
		return cell, err
	}
	cell.Mods = ms
	cell.ModsKey = mods
	return cell, nil
}

// removeFlight unpublishes a flight, but only while the map still
// points at it — a canceled flight may already have been replaced by
// a fresh one for the same digest.
func (s *Server) removeFlight(t *cellTask) {
	s.mu.Lock()
	if s.flights[t.digest] == t.fl {
		delete(s.flights, t.digest)
	}
	s.mu.Unlock()
}

// Drain shuts the daemon down gracefully: new jobs are refused (503),
// every accepted job runs to its terminal state, the worker pool
// exits, and the cache is flushed (compacting the JSONL file). If ctx
// expires first, the remaining jobs are canceled and drained as
// canceled — still no accepted job is left unresolved.
func (s *Server) Drain(ctx context.Context) error {
	var err error
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		s.reg.Gauge(mDraining, helpDraining).Set(1)
		done := make(chan struct{})
		go func() { s.jobWG.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			s.cancel() // cancel every job context; waiters abandon their flights
			<-done
		}
		close(s.queue)
		s.workerWG.Wait()
		s.cancel()
		err = s.cache.Close()
	})
	return err
}

// endpointLabel canonicalizes a mux pattern for metric labels.
func endpointLabel(pattern string) string {
	return strings.TrimSpace(pattern)
}
