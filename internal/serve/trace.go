package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"wsrs/internal/otrace"
	"wsrs/internal/otrace/federate"
	"wsrs/internal/telemetry"
)

// handleTrace serves the span tree of one job: every span of the job's
// trace still held by the ring, plus — one hop — the spans of traces
// its coalesced waiters link to, so a job that piggybacked on another
// job's flight still shows where the simulation time went. The default
// body is the otrace document; ?format=chrome renders the same spans
// as Chrome trace-event JSON that loads directly into Perfetto, with
// lifecycle spans and worker-pool spans on separate process tracks.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, j *job) {
	spans := s.tracer.TraceSpans(j.trace)
	linked := map[otrace.TraceID]bool{j.trace: true}
	for i := range spans {
		v, ok := spans[i].Attr("link_trace").(string)
		if !ok {
			continue
		}
		id, err := strconv.ParseUint(v, 16, 64)
		if err != nil || linked[otrace.TraceID(id)] {
			continue
		}
		linked[otrace.TraceID(id)] = true
		spans = append(spans, s.tracer.TraceSpans(otrace.TraceID(id))...)
	}
	if s.opts.Fleet != nil {
		s.serveStitchedTrace(w, r, j, spans)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = telemetry.WriteTrace(w, chromeEvents(spans))
		return
	}
	doc := otrace.NewDocument(j.trace, spans)
	doc.JobID = j.id
	doc.Label = j.label
	doc.Evicted = s.tracer.Total() - uint64(s.tracer.Len())
	w.Header().Set("Content-Type", "application/json")
	_ = otrace.WriteDocument(w, doc)
}

// serveStitchedTrace answers GET /v1/jobs/{id}/trace on a coordinator:
// the local span set becomes the first process track, every fleet
// member is asked (concurrently, under the federation deadline) for
// its spans of the same trace, and the merged multi-track document
// goes out as native JSON or — ?format=chrome — as one Perfetto
// timeline with a named track per process. A member that cannot
// answer contributes a stale track, never an error.
func (s *Server) serveStitchedTrace(w http.ResponseWriter, r *http.Request, j *job, spans []otrace.Span) {
	local := federate.ProcessDoc{
		Process: s.process,
		Evicted: s.tracer.Total() - uint64(s.tracer.Len()),
		EpochUs: otrace.EpochUnixUs(),
		Spans:   make([]otrace.SpanJSON, len(spans)),
	}
	for i := range spans {
		local.Spans[i] = spans[i].JSON()
	}
	fl := s.opts.Fleet
	doc := federate.Stitch(r.Context(), local, otrace.FormatTraceID(j.trace),
		fl.FleetMembers(), fl.FleetTrace, s.opts.FleetScrapeTimeout)
	doc.JobID = j.id
	doc.Label = j.label
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = telemetry.WriteTrace(w, federate.ChromeEvents(doc))
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleTraceByID serves GET /v1/traces/{trace}: this process's span
// document for one trace ID, regardless of which job (or remote
// caller) the trace belongs to. This is the member-side fetch of fleet
// trace stitching — the coordinator collects each member's document
// for the propagated trace and merges them.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("trace")
	id, err := strconv.ParseUint(raw, 16, 64)
	if err != nil || id == 0 {
		s.writeError(w, r, http.StatusBadRequest, ErrorEnvelope{
			Field: "trace", Msg: fmt.Sprintf("trace must be a 16-digit hex ID, got %q", raw)})
		return
	}
	spans := s.tracer.TraceSpans(otrace.TraceID(id))
	doc := otrace.NewDocument(otrace.TraceID(id), spans)
	doc.Evicted = s.tracer.Total() - uint64(s.tracer.Len())
	w.Header().Set("Content-Type", "application/json")
	_ = otrace.WriteDocument(w, doc)
}

// chromeEvents lays the spans out on Perfetto tracks: pid 1 is the
// service (tid 1 the job lifecycle, one tid per cell past 10), pid 2
// the worker pool (one tid per pool worker, carrying the queue-wait,
// simulate and grid.cell spans) — the same track convention as the
// wsrsbench host trace, so both merge onto one timeline.
func chromeEvents(spans []otrace.Span) []telemetry.TraceEvent {
	const pidService, pidWorkers = 1, 2
	events := []telemetry.TraceEvent{
		telemetry.MetadataEvent("process_name", "wsrsd service", pidService, 0),
		telemetry.MetadataEvent("process_name", "wsrsd workers", pidWorkers, 0),
		telemetry.MetadataEvent("thread_name", "job lifecycle", pidService, 1),
	}
	seen := map[[2]int]bool{}
	for i := range spans {
		sp := &spans[i]
		pid, tid := pidService, 1
		if wv, ok := sp.Attr("worker").(int64); ok {
			pid, tid = pidWorkers, int(wv)+1
			if k := [2]int{pid, tid}; !seen[k] {
				seen[k] = true
				events = append(events, telemetry.MetadataEvent(
					"thread_name", fmt.Sprintf("worker %d", wv), pid, tid))
			}
		} else if cv, ok := sp.Attr("cell").(int64); ok {
			tid = 10 + int(cv)
			if k := [2]int{pid, tid}; !seen[k] {
				seen[k] = true
				events = append(events, telemetry.MetadataEvent(
					"thread_name", fmt.Sprintf("cell %d", cv), pid, tid))
			}
		}
		events = append(events, sp.TraceEvent(pid, tid))
	}
	return events
}

// handlePhases serves the phase-sample page after the ?since cursor —
// the raw samples behind the wsrsd_phase_us histograms, so clients
// compute exact percentiles instead of decoding power-of-two buckets.
func (s *Server) handlePhases(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, ErrorEnvelope{
				Field: "since", Msg: fmt.Sprintf("since must be a non-negative integer, got %q", v)})
			return
		}
		since = n
	}
	writeJSON(w, http.StatusOK, s.phases.page(since))
}

// handleSlow serves the ring of the slowest recent jobs with their
// phase decompositions, slowest first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slow.snapshot())
}
