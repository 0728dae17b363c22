package serve

import (
	"fmt"
	"net/http"
	"time"

	flightrec "wsrs/internal/otrace/flight"
	"wsrs/internal/telemetry"
)

// Metric families of the daemon, built on the PR 4 telemetry
// registry: per-endpoint request counts and latency, job outcomes,
// queue pressure, and the cache/coalescing counters the benchmark and
// CI assert against.
const (
	mRequests    = "wsrsd_http_requests_total"
	helpRequests = "job-API requests by endpoint and status code"
	mRequestMs   = "wsrsd_http_request_ms"
	helpReqMs    = "job-API request latency in milliseconds"

	mJobs          = "wsrsd_jobs_total"
	helpJobs       = "jobs by outcome (done, failed, canceled, rejected, invalid)"
	mJobsActive    = "wsrsd_jobs_active"
	helpJobsActive = "jobs accepted and not yet terminal"
	mPending       = "wsrsd_cells_pending"
	helpPending    = "cells accepted and not yet resolved (admission-control level)"

	mSims            = "wsrsd_sims_total"
	helpSims         = "simulations actually executed by the worker pool"
	mSimMs           = "wsrsd_cell_sim_ms"
	helpSimMs        = "per-simulation wall time in milliseconds"
	mSimsCanceled    = "wsrsd_sims_canceled_total"
	helpSimsCanceled = "in-flight simulations aborted because every waiting job canceled"
	mRunnerCells     = "wsrsd_runner_cells_total"
	helpRunnerCells  = "cells delegated to the configured CellRunner (fleet coordinator mode)"

	mCacheHits       = "wsrsd_cache_hits_total"
	helpCacheHits    = "cells served from the content-addressed result cache"
	mCoalesced       = "wsrsd_coalesced_total"
	helpCoalesced    = "cells that joined an identical in-flight simulation"
	mCacheStores     = "wsrsd_cache_stores_total"
	helpCacheStores  = "results written into the cache"
	mCacheEntries    = "wsrsd_cache_entries"
	helpCacheEntries = "live entries in the result cache"

	mPeerHits         = "wsrsd_cache_peer_hits_total"
	helpPeerHits      = "cells resolved by fetching the result from a peer daemon's cache"
	mPeerMisses       = "wsrsd_cache_peer_misses_total"
	helpPeerMisses    = "peer-cache fetches that found nothing (cell simulated locally)"
	mPeerServes       = "wsrsd_cache_peer_serves_total"
	helpPeerServes    = "GET /v1/cache/{digest} lookups served to peers, by outcome"
	mCacheDegraded    = "wsrsd_cache_degraded"
	helpCacheDegraded = "1 once cache persistence failed and was switched off (memory-only pass-through)"

	mDraining    = "wsrsd_draining"
	helpDraining = "1 while the daemon drains (refusing new jobs)"

	mPhaseUs       = "wsrsd_phase_us"
	helpPhaseUs    = "per-phase latency decomposition in microseconds (queue, coalesce, cache, simulate, total)"
	mTraceSpans    = "wsrsd_trace_spans"
	helpTraceSpans = "spans currently held in the trace ring"
	mTraceEvicted  = "wsrsd_trace_spans_evicted_total"
	helpTraceEvict = "spans evicted from the trace ring by wraparound"
)

// observePhase feeds one phase duration to the wsrsd_phase_us
// histogram, the /v1/phases sample log and the flight recorder.
func (s *Server) observePhase(phase string, d time.Duration) {
	us := d.Microseconds()
	s.phases.add(phase, us)
	s.fr.Record(flightrec.Event{Kind: flightrec.KindPhase, Name: phase, Value: us})
	s.phaseHist[phase].Observe(uint64(us))
}

// initMetrics registers the families up front so a scrape before the
// first job already shows every series.
func (s *Server) initMetrics() {
	s.reg.Gauge(mPending, helpPending)
	s.reg.Counter(mSims, helpSims)
	s.reg.Histogram(mSimMs, helpSimMs)
	s.reg.Counter(mSimsCanceled, helpSimsCanceled)
	s.reg.Counter(mCacheHits, helpCacheHits)
	s.reg.Counter(mCoalesced, helpCoalesced)
	s.reg.Counter(mCacheStores, helpCacheStores)
	s.reg.Gauge(mCacheEntries, helpCacheEntries)
	s.reg.Gauge(mDraining, helpDraining)
	s.reg.Gauge(mCacheDegraded, helpCacheDegraded)
	if s.opts.Runner != nil {
		s.reg.Counter(mRunnerCells, helpRunnerCells)
	}
	if s.opts.Peers != nil {
		s.reg.Counter(mPeerHits, helpPeerHits)
		s.reg.Counter(mPeerMisses, helpPeerMisses)
	}
	for _, outcome := range []string{"hit", "miss"} {
		s.reg.Counter(mPeerServes+telemetry.Labels("outcome", outcome), helpPeerServes)
	}
	s.reg.Gauge(mCacheEntries, helpCacheEntries).Set(int64(s.cache.Len()))
	s.reg.Gauge(mTraceSpans, helpTraceSpans)
	s.reg.Counter(mTraceEvicted, helpTraceEvict)
	for _, d := range []string{"evaluated", "pruned"} {
		s.reg.Counter(mExplorePoints+telemetry.Labels("disposition", d), helpExplorePoints)
	}

	// One histogram per phase, resolved once so the observation hot
	// path never touches the registry lock.
	s.phaseHist = make(map[string]*telemetry.Histogram, len(PhaseNames))
	for _, phase := range PhaseNames {
		s.phaseHist[phase] = s.reg.Histogram(mPhaseUs+telemetry.Labels("phase", phase), helpPhaseUs)
	}
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes so the SSE event stream keeps
// working behind the access-log wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the per-endpoint request counter
// and latency histogram. The label is the route pattern, not the raw
// path, so the series stay bounded.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	endpoint = endpointLabel(endpoint)
	hist := s.reg.Histogram(mRequestMs+telemetry.Labels("endpoint", endpoint), helpReqMs)
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(rec, r)
		hist.Observe(uint64(time.Since(start).Milliseconds()))
		s.reg.Counter(mRequests+telemetry.Labels(
			"endpoint", endpoint, "method", r.Method, "code", fmt.Sprint(rec.code)),
			helpRequests).Inc()
	}
}
