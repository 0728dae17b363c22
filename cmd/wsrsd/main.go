// Command wsrsd is the simulation-as-a-service daemon: a long-running
// HTTP server that accepts simulation jobs (single cells, explicit
// grids, or the named experiments figure4 / figure5 / energy), runs
// them on a bounded worker pool over the shared memoized trace cache,
// and remembers every completed cell in a content-addressed result
// store so repeated and concurrent duplicate requests cost one
// simulation.
//
// API:
//
//	POST   /v1/jobs              submit a job (202 + job record; 400
//	                             structured validation errors; 429 +
//	                             Retry-After when the queue is full;
//	                             503 while draining — every error body
//	                             is the uniform envelope with trace_id)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status with per-cell outcomes
//	GET    /v1/jobs/{id}/results raw per-cell results (byte-identical
//	                             to a direct wsrs.RunGrid run)
//	GET    /v1/jobs/{id}/trace   the job's span tree (add
//	                             ?format=chrome for Perfetto)
//	GET    /v1/jobs/{id}/events  server-sent event stream of per-cell
//	                             progress
//	GET    /v1/phases            per-phase latency samples
//	GET    /v1/traces/{trace}    this process's spans for one trace ID
//	                             (the member-side fetch of fleet trace
//	                             stitching)
//	GET    /debug/slow           ring of the slowest recent jobs
//	GET    /debug/flightrecorder black-box ring state + retained
//	                             postmortem snapshots
//	DELETE /v1/jobs/{id}         cancel
//	GET    /metrics /healthz /readyz /debug/vars /debug/pprof/
//
// Design-space exploration jobs run the internal/explore search
// (grid / seeded random / successive halving behind the exact
// surplus-registers pre-filter) over the same worker pool, cache and
// — in coordinator mode — fleet scatter path as plain jobs:
//
//	POST   /v1/explore            submit an exploration (202; the same
//	                              400/429/503 admission contract as
//	                              /v1/jobs, with structured field errors)
//	GET    /v1/explore            list explore jobs
//	GET    /v1/explore/{id}       status: phase, points evaluated /
//	                              pruned, frontier size, cache hits
//	GET    /v1/explore/{id}/frontier  the deterministic Pareto frontier
//	                              document (byte-identical across runs,
//	                              hosts and evaluators)
//	GET    /v1/explore/{id}/events    SSE stream: phases, progress, result
//	DELETE /v1/explore/{id}       cancel
//
// Coordinator mode additionally serves the fleet observability
// surface:
//
//	GET    /v1/fleet/metrics     every member's /metrics merged into one
//	                             exposition with a member label, plus
//	                             fleet rollups (down members degrade to
//	                             a stale marker, never an error)
//	GET    /v1/fleet/status      JSON membership/health/breaker summary
//
// and GET /v1/jobs/{id}/trace returns the stitched multi-process
// document: the coordinator's spans plus every member's spans for the
// same trace ID, one track per process (?format=chrome renders the
// whole fleet on one Perfetto timeline).
//
// The flight recorder is the always-on black box: a bounded in-memory
// ring of recent spans, log records, phase samples and simulation
// summaries that snapshots itself to a self-contained postmortem JSON
// artifact (-postmortem-dir) when something goes wrong — a watchdog or
// check failure, a cell panic, a circuit breaker opening, a backend
// ejection.
//
// Every request is traced (the response carries X-Trace-Id) and logged
// structurally; a submitted job inherits its request's trace, so one
// trace ID follows the job from HTTP arrival through admission, queue
// wait, coalescing, cache lookup and simulation.
//
// SIGTERM/SIGINT drain gracefully: /readyz flips to 503 immediately
// (while /healthz stays 200 and the listener stays open), new jobs are
// refused, accepted jobs finish, the result cache is flushed
// (compacted) to -cache.
//
// Fleet modes (see README "Running a fleet"):
//
//   - -peers turns the daemon into a fleet coordinator: cache misses
//     are scattered to the listed member daemons by their sha256
//     content address (consistent hashing: one cache home per cell),
//     with retries, hedging, health-probe membership and circuit
//     breakers; the fleet counters share this daemon's /metrics.
//   - -cache-peers keeps the daemon a plain member but inserts the
//     peer-fetch cache tier: a local miss first asks the digest's
//     cache home (GET /v1/cache/{digest}) before simulating. List the
//     other members, not this daemon itself.
//
// Usage:
//
//	wsrsd -listen :8080 -cache /var/tmp/wsrsd.cache.jsonl
//	wsrsd -listen 127.0.0.1:0 -workers 4 -queue 256 -log-format json
//	wsrsd -listen :8080 -peers http://sim1:8080,http://sim2:8080
package main

import (
	"context"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wsrs/internal/fleet"
	"wsrs/internal/otrace"
	flightrec "wsrs/internal/otrace/flight"
	"wsrs/internal/serve"
	"wsrs/internal/telemetry"
)

func main() {
	listen := flag.String("listen", ":8080", "address to serve the job API and diagnostics on")
	workers := flag.Int("workers", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 1024, "admission-control cap on accepted-but-unresolved cells; beyond it POST /v1/jobs returns 429")
	cachePath := flag.String("cache", "", "persist the content-addressed result cache to this JSONL file (empty = memory only)")
	cacheEntries := flag.Int("cache-entries", 4096, "LRU bound on cached cell results")
	maxMeasure := flag.Uint64("max-measure", 0, "reject jobs asking for more measured instructions per cell than this (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "on SIGTERM, cancel jobs still running after this long")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	traceSpans := flag.Int("trace-spans", 0, "span-ring capacity for request tracing (0 = default 8192)")
	slowJobs := flag.Int("slow-jobs", 0, "how many slowest jobs /debug/slow retains (0 = default 32)")
	phaseSamples := flag.Int("phase-samples", 0, "phase-sample retention behind /v1/phases (0 = default 8192)")
	peers := flag.String("peers", "", "comma-separated member base URLs: run as a fleet coordinator scattering cells to them")
	cachePeers := flag.String("cache-peers", "", "comma-separated peer base URLs (excluding this daemon): fetch cache misses from their content-addressed caches before simulating")
	hedgeAfter := flag.Duration("hedge-after", 0, "coordinator mode: hedge a straggling cell on the next backend after this long (0 = default 750ms, <0 = off)")
	probeInterval := flag.Duration("probe-interval", 0, "coordinator mode: /readyz probe cadence for backend membership (0 = default 1s)")
	postmortemDir := flag.String("postmortem-dir", "", "write flight-recorder postmortem JSON artifacts here on faults (empty = memory only, served at /debug/flightrecorder)")
	flag.Parse()

	// One span recorder and one black-box flight recorder for the whole
	// process: the job API, the fleet coordinator and the structured log
	// all feed the same rings, so a stitched trace or a postmortem
	// snapshot sees every layer. The process label distinguishes this
	// daemon's track in fleet-wide output.
	process := "wsrsd " + *listen
	if splitURLs(*peers) != nil {
		process = "coordinator"
	}
	tracer := otrace.NewRecorder(*traceSpans)
	fr := flightrec.New(flightrec.Options{
		Process: process,
		Dir:     *postmortemDir,
		Spans:   tracer,
	})
	logger := slog.New(flightrec.Tee(serve.NewLogHandler(os.Stderr, *logFormat), fr))
	opts := serve.Options{
		Workers:        *workers,
		MaxQueuedCells: *queue,
		CachePath:      *cachePath,
		CacheEntries:   *cacheEntries,
		MaxMeasure:     *maxMeasure,
		TraceSpans:     *traceSpans,
		SlowJobs:       *slowJobs,
		PhaseSamples:   *phaseSamples,
		Logger:         logger,
		Process:        process,
		Tracer:         tracer,
		Flight:         fr,
	}
	var coord *fleet.Coordinator
	if backends := splitURLs(*peers); len(backends) > 0 {
		// Coordinator mode: one registry for the job API and the fleet
		// counters, so a single /metrics scrape shows both layers — and
		// one tracer, so the coordinator's fleet spans land in the same
		// ring the stitched-trace endpoint reads.
		opts.Registry = telemetry.NewRegistry()
		coord = fleet.New(fleet.Options{
			Backends:      backends,
			HedgeAfter:    *hedgeAfter,
			ProbeInterval: *probeInterval,
			Registry:      opts.Registry,
			Tracer:        tracer,
			Flight:        fr,
			Logger:        logger,
		})
		opts.Runner = coord
		opts.Fleet = coord
		logger.Info("fleet coordinator mode", slog.Int("backends", len(backends)))
	} else if ps := splitURLs(*cachePeers); len(ps) > 0 {
		// Member mode with the peer-fetch cache tier: the same ring
		// machinery, used only to locate a digest's cache home.
		coord = fleet.New(fleet.Options{
			Backends:      ps,
			ProbeInterval: *probeInterval,
			Tracer:        tracer,
			Flight:        fr,
			Logger:        logger,
		})
		opts.Peers = coord
		logger.Info("peer-cache mode", slog.Int("peers", len(ps)))
	}
	if coord != nil {
		defer coord.Close()
	}
	srv, err := serve.New(opts)
	if err != nil {
		fatal(logger, err)
	}
	addr, httpSrv, err := serve.Listen(*listen, srv.Handler())
	if err != nil {
		fatal(logger, err)
	}
	logger.Info("serving job API",
		slog.String("addr", "http://"+addr),
		slog.Int("cache_entries", srv.Cache().Len()))

	// Graceful drain: first signal flips /readyz to 503 and stops
	// admission while accepted jobs finish; a second signal (or the
	// drain timeout) cancels what is still running — either way every
	// accepted job reaches a terminal state and the cache is flushed
	// before the listener closes.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	<-sigCtx.Done()
	stop()
	logger.Info("draining", slog.String("hint", "finishing accepted jobs; signal again to cancel"))

	drainCtx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()
	drainCtx, cancelTimeout := context.WithTimeout(drainCtx, *drainTimeout)
	defer cancelTimeout()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Error("cache flush", slog.String("error", err.Error()))
	}
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	_ = httpSrv.Shutdown(shutdownCtx)
	logger.Info("drained", slog.Int("cache_entries", srv.Cache().Len()))
}

// splitURLs parses a comma-separated URL list, dropping empties.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, strings.TrimRight(u, "/"))
		}
	}
	return out
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", slog.String("error", err.Error()))
	os.Exit(1)
}
