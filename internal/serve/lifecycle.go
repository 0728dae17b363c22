package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"wsrs/internal/otrace"
	"wsrs/internal/telemetry"
)

// The daemon runs two kinds of job — cell grids (POST /v1/jobs) and
// design-space explorations (POST /v1/explore) — through one job
// model: a lifecycle record with its event log, a history table, the
// admission front door, the SSE stream and the close path below. A
// kind adds only its request, its status view and its run function.

// sseEvent is one entry of a record's event log; its type names the
// SSE frame.
type sseEvent interface{ eventType() string }

func (e Event) eventType() string        { return e.Type }
func (e ExploreEvent) eventType() string { return e.Type }

// lifecycle is the part of a job record both kinds share: identity,
// trace identity, cancellation, state and timestamps, and the event log
// with its change broadcast. Kinds embed it; mu also guards the kind's
// own mutable fields.
type lifecycle[E sseEvent] struct {
	id    string
	label string

	// Trace identity: every span of the record's lifecycle carries
	// trace; root is the preallocated ID of the root span (emitted only
	// when the record finishes, so lifecycle spans can parent to it up
	// front), parentSpan the submit request's "http" span. startNs
	// stamps acceptance on the otrace monotonic clock (opens the
	// "total" phase).
	trace      otrace.TraceID
	root       otrace.SpanID
	parentSpan otrace.SpanID
	startNs    int64

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	created  time.Time
	finished time.Time
	err      string
	events   []E
	changed  chan struct{} // closed and replaced on every append
}

// init starts the record under parent, in trace tc.Trace with its root
// span parented to tc.Span.
func (l *lifecycle[E]) init(id, label string, parent context.Context, tr *otrace.Recorder, tc otrace.Ctx) {
	l.id, l.label = id, label
	l.trace, l.root, l.parentSpan, l.startNs = tc.Trace, tr.AllocID(), tc.Span, otrace.Now()
	l.ctx, l.cancel = context.WithCancel(parent)
	l.state, l.created, l.changed = StateQueued, time.Now(), make(chan struct{})
}

// rootCtx is the context that parents lifecycle spans to the record's
// (future) root span.
func (l *lifecycle[E]) rootCtx() otrace.Ctx { return otrace.Ctx{Trace: l.trace, Span: l.root} }

func (l *lifecycle[E]) terminalLocked() bool {
	return l.state == StateDone || l.state == StateFailed || l.state == StateCanceled
}

func (l *lifecycle[E]) terminal() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.terminalLocked()
}

// abort cancels the record's context; its run notices and finishes.
func (l *lifecycle[E]) abort() { l.cancel() }

func (l *lifecycle[E]) setRunning() {
	l.mu.Lock()
	if l.state == StateQueued {
		l.state = StateRunning
	}
	l.mu.Unlock()
}

// finish moves the record to a terminal state and appends the terminal
// event, which last builds under the lock. A record already terminal
// is left as it is.
func (l *lifecycle[E]) finish(state, errMsg string, last func() E) {
	l.mu.Lock()
	if l.terminalLocked() {
		l.mu.Unlock()
		return
	}
	l.state, l.err, l.finished = state, errMsg, time.Now()
	l.appendLocked(last())
	l.mu.Unlock()
	l.cancel()
}

func (l *lifecycle[E]) appendLocked(ev E) {
	l.events = append(l.events, ev)
	close(l.changed)
	l.changed = make(chan struct{})
}

// eventsSince returns the events after cursor plus the channel that
// closes on the next append, so a streaming handler can replay then
// follow without polling.
func (l *lifecycle[E]) eventsSince(cursor int) ([]E, chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor >= len(l.events) {
		return nil, l.changed, l.terminalLocked()
	}
	return append([]E(nil), l.events[cursor:]...), l.changed, l.terminalLocked()
}

// serveEvents streams the event log as server-sent events: every
// recorded event replays immediately, then the stream follows live
// until the record reaches a terminal state or the client leaves.
func (l *lifecycle[E]) serveEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	cursor := 0
	for {
		events, changed, terminal := l.eventsSince(cursor)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.eventType(), data)
		}
		cursor += len(events)
		fl.Flush()
		if terminal && len(events) == 0 {
			return
		}
		if len(events) > 0 {
			continue // drain the log before blocking
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// close ends a finished record the one way both kinds share: the
// outcome counter, then the root span — emitted retroactively under its
// preallocated ID, so every lifecycle span already parents to it —
// then the trace-ring metrics and the "finished" log line. annotate
// adds the kind's root-span attributes, attrs its log attributes.
func (l *lifecycle[E]) close(s *Server, k *kind, state string, endNs int64, annotate func(*otrace.Span), attrs ...slog.Attr) {
	k.outcomes[state].Inc()
	root := s.tracer.Make(k.noun, otrace.Ctx{Trace: l.trace, Span: l.parentSpan}, l.startNs, endNs)
	root.ID = l.root
	root.SetStr(k.idKey, l.id)
	root.SetStr("state", state)
	annotate(&root)
	s.tracer.Append(&root)
	s.syncTraceMetrics()
	line := append([]slog.Attr{
		slog.String(k.idKey, l.id),
		slog.String("trace_id", otrace.FormatTraceID(l.trace)),
		slog.String("state", state),
	}, attrs...)
	line = append(line, slog.Float64("total_ms", float64(time.Duration(endNs-l.startNs).Microseconds())/1000))
	s.log.LogAttrs(context.Background(), slog.LevelInfo, k.finished, line...)
}

// kind names one job kind on the surfaces both kinds share.
type kind struct {
	route     string // the collection route; records live at route/{id}
	prefix    string // ID prefix: "j" numbers j-000001
	noun      string // root span name and log stem ("job finished", "job_id")
	what      string // what a 404 says is missing
	admission string // admission span name

	idKey, accepted, finished string // derived from noun

	outcomes map[string]*telemetry.Counter // by outcome label
	active   *telemetry.Gauge              // accepted, not yet terminal
}

// record is a kind's record as the shared table, routes and front door
// drive it; the embedded lifecycle supplies all but view and run.
type record interface {
	terminal() bool
	abort()
	serveEvents(w http.ResponseWriter, r *http.Request)
	// view is the record's JSON status; list trims it for the listing.
	view(list bool) any
	// run drives an accepted record to a terminal state and closes it.
	run(s *Server)
}

// table is one kind's history: ID allocation, lookup and listing in
// submission order, bounded by Options.KeepJobs.
type table[R record] struct {
	kind
	s *Server

	mu    sync.Mutex
	recs  map[string]R
	order []string // IDs, oldest first
	next  int
}

// newTable registers the kind's outcome counters (family{outcome=...},
// help) and returns its empty history.
func newTable[R record](s *Server, k kind, family, help string) *table[R] {
	k.idKey, k.accepted, k.finished = k.noun+"_id", k.noun+" accepted", k.noun+" finished"
	k.outcomes = map[string]*telemetry.Counter{}
	for _, o := range []string{"done", "failed", "canceled", "rejected", "invalid"} {
		k.outcomes[o] = s.reg.Counter(family+telemetry.Labels("outcome", o), help)
	}
	return &table[R]{kind: k, s: s, recs: map[string]R{}}
}

// add files the record mk builds under the next ID, then evicts the
// oldest terminal records past the history cap; a live oldest record
// keeps the history until it settles.
func (t *table[R]) add(mk func(id string) R) (string, R) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := fmt.Sprintf("%s-%06d", t.prefix, t.next)
	rec := mk(id)
	t.recs[id] = rec
	t.order = append(t.order, id)
	for len(t.order) > t.s.opts.KeepJobs && t.recs[t.order[0]].terminal() {
		delete(t.recs, t.order[0])
		t.order = t.order[1:]
	}
	return id, rec
}

// with resolves the {id} path value to a record before h runs,
// answering 404 for an unknown ID.
func (t *table[R]) with(h func(http.ResponseWriter, *http.Request, R)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t.mu.Lock()
		rec, ok := t.recs[r.PathValue("id")]
		t.mu.Unlock()
		if !ok {
			t.s.writeError(w, r, http.StatusNotFound,
				ErrorEnvelope{Msg: fmt.Sprintf("no such %s %q", t.what, r.PathValue("id"))})
			return
		}
		h(w, r, rec)
	}
}

// mount serves the routes both kinds share: submit, list, get, cancel
// and the event stream.
func (t *table[R]) mount(mux *http.ServeMux, submit http.HandlerFunc) {
	one := t.route + "/{id}"
	mux.HandleFunc("POST "+t.route, t.s.instrument(t.route, submit))
	mux.HandleFunc("GET "+t.route, t.s.instrument(t.route, func(w http.ResponseWriter, r *http.Request) {
		t.mu.Lock()
		out := make([]any, 0, len(t.order))
		for _, id := range t.order {
			out = append(out, t.recs[id].view(true))
		}
		t.mu.Unlock()
		writeJSON(w, http.StatusOK, out)
	}))
	mux.HandleFunc("GET "+one, t.s.instrument(one, t.with(func(w http.ResponseWriter, r *http.Request, rec R) {
		writeJSON(w, http.StatusOK, rec.view(false))
	})))
	mux.HandleFunc("DELETE "+one, t.s.instrument(one, t.with(func(w http.ResponseWriter, r *http.Request, rec R) {
		rec.abort()
		writeJSON(w, http.StatusOK, rec.view(false))
	})))
	// Not instrumented: a stream's latency histogram would lie.
	mux.HandleFunc("GET "+one+"/events", t.with(func(w http.ResponseWriter, r *http.Request, rec R) {
		rec.serveEvents(w, r)
	}))
}

// admit is the front door of both submit routes. It records the
// admission span and its outcome, answers 503 while draining, decodes
// the body into req and runs the kind's check, which returns the cells
// to reserve now. A *RequestError (the decode error included) is a 400
// and an *admissionError — from check or from the reservation — a 429
// with Retry-After; both count under their outcome. An accepted request
// becomes the record open builds, runs under the drain wait group and
// the active gauge, is logged with open's attributes, and is answered
// 202 with its Location.
func (t *table[R]) admit(w http.ResponseWriter, r *http.Request, req any,
	check func() (reserve int, err error),
	open func(id string, tc otrace.Ctx) (R, []slog.Attr)) {
	s := t.s
	// Parented to the access-log middleware's http span, so the whole
	// decision shows up inside the request slice.
	adm := s.tracer.Begin(t.admission, requestCtx(r))
	outcome := "accepted"
	defer func() {
		adm.SetStr("outcome", outcome)
		s.tracer.End(&adm)
	}()

	if s.draining.Load() {
		outcome = "draining"
		s.writeError(w, r, http.StatusServiceUnavailable,
			ErrorEnvelope{Msg: "draining: not accepting new jobs"})
		return
	}
	reserve, err := 0, json.NewDecoder(r.Body).Decode(req)
	if err != nil {
		err = &RequestError{Field: "body", Msg: err.Error()}
	} else if reserve, err = check(); err == nil {
		// Reserve queue room for the whole request or reject it now,
		// before any state is created.
		err = s.reservePending(reserve)
	}
	if err != nil {
		var ae *admissionError
		if errors.As(err, &ae) {
			outcome = "rejected"
			w.Header().Set("Retry-After", "1")
			s.writeError(w, r, http.StatusTooManyRequests,
				ErrorEnvelope{Msg: ae.msg, Pending: ae.pending, QueueCap: ae.cap})
		} else {
			outcome = "invalid"
			re := &RequestError{Msg: err.Error()}
			errors.As(err, &re)
			s.writeError(w, r, http.StatusBadRequest,
				ErrorEnvelope{Msg: re.Msg, Field: re.Field, Valid: re.Valid})
		}
		t.outcomes[outcome].Inc()
		return
	}

	// The record inherits the request's trace, so the submit http span,
	// the admission span and the whole lifecycle share one trace.
	tc := requestCtx(r)
	if tc.Trace == 0 {
		tc.Trace = s.tracer.NewTrace()
	}
	var attrs []slog.Attr
	id, rec := t.add(func(id string) (rec R) {
		rec, attrs = open(id, tc)
		return rec
	})
	adm.SetStr(t.idKey, id)

	t.active.Add(1)
	s.jobWG.Add(1)
	go func() {
		defer s.jobWG.Done()
		defer t.active.Add(-1)
		rec.run(s)
	}()

	s.log.LogAttrs(r.Context(), slog.LevelInfo, t.accepted, append([]slog.Attr{
		slog.String(t.idKey, id),
		slog.String("trace_id", otrace.FormatTraceID(tc.Trace)),
	}, attrs...)...)
	w.Header().Set("Location", t.route+"/"+id)
	writeJSON(w, http.StatusAccepted, rec.view(false))
}

// admissionError is a request the queue cannot take: msg is what the
// 429 says, pending and cap the queue level it was refused at.
type admissionError struct {
	msg     string
	pending int64
	cap     int
}

func (e *admissionError) Error() string {
	return fmt.Sprintf("%s: %d cells pending of %d cap", e.msg, e.pending, e.cap)
}

// reservePending reserves queue room for n cells or reports the
// admission failure. Jobs and exploration batches contend for this one
// budget; every reserved cell is returned by cellDone.
func (s *Server) reservePending(n int) error {
	for {
		p := s.pending.Load()
		if int(p)+n > s.opts.MaxQueuedCells {
			return &admissionError{msg: "queue full", pending: p, cap: s.opts.MaxQueuedCells}
		}
		if s.pending.CompareAndSwap(p, p+int64(n)) {
			s.reg.Gauge(mPending, helpPending).Set(s.pending.Load())
			return nil
		}
	}
}
