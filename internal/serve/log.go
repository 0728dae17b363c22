package serve

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"wsrs/internal/otrace"
)

// NewLogHandler builds the slog handler the daemon binaries share:
// "json" selects one JSON object per line (machine-shippable),
// anything else the slog text handler. It returns the handler, not a
// logger, so wsrsd can interpose the flight recorder's tee between
// the logger and the sink. Every job-lifecycle line the server emits
// carries trace_id/job_id attributes so client logs, server logs and
// span exports correlate on the same identifiers.
func NewLogHandler(w io.Writer, format string) slog.Handler {
	if strings.EqualFold(format, "json") {
		return slog.NewJSONHandler(w, nil)
	}
	return slog.NewTextHandler(w, nil)
}

// discardLogger silences servers built without an explicit logger
// (tests, embedded use).
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// ctxKey keys the per-request trace context.
type ctxKey int

const traceCtxKey ctxKey = iota

// requestCtx returns the trace context the access-log middleware
// assigned to this request (zero when the handler runs unwrapped,
// e.g. in direct unit tests).
func requestCtx(r *http.Request) otrace.Ctx {
	if c, ok := r.Context().Value(traceCtxKey).(otrace.Ctx); ok {
		return c
	}
	return otrace.Ctx{}
}

// AccessLog is the shared-mux middleware: every request gets a trace
// context (echoed as X-Trace-Id and stored in the request context so
// handlers and error envelopes reuse it), an "http" span in rec when
// non-nil, and one structured access-log line. A request arriving with
// propagated trace headers (a fleet coordinator dispatching a cell)
// continues the caller's trace — its "http" span parents to the
// caller's leg span — so one trace ID follows a cell across processes;
// a bare request starts a fresh trace. A job submitted through a
// wrapped handler inherits the request's trace ID either way.
func AccessLog(h http.Handler, rec *otrace.Recorder, lg *slog.Logger) http.Handler {
	if lg == nil {
		lg = discardLogger()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := otrace.Extract(r.Header)
		var sp otrace.Span
		if rec != nil {
			sp = rec.Begin("http", ctx)
			sp.SetStr("method", r.Method)
			sp.SetStr("path", r.URL.Path)
			ctx = sp.Ctx()
		}
		w.Header().Set("X-Trace-Id", otrace.FormatTraceID(ctx.Trace))
		rr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rr, r.WithContext(context.WithValue(r.Context(), traceCtxKey, ctx)))
		dur := time.Since(start)
		if rec != nil {
			sp.SetInt("status", int64(rr.code))
			rec.End(&sp)
		}
		lg.LogAttrs(r.Context(), slog.LevelInfo, "http",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rr.code),
			slog.Float64("dur_ms", float64(dur.Microseconds())/1000),
			slog.String("trace_id", otrace.FormatTraceID(ctx.Trace)),
			slog.String("remote", r.RemoteAddr),
		)
	})
}
