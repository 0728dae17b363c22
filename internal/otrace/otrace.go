// Package otrace is the request-scoped span-tracing subsystem of the
// serving layer: where internal/probe traces the simulated machine
// cycle by cycle and internal/telemetry counts what the host did in
// aggregate, otrace answers "where did THIS job spend its time" — one
// span per lifecycle phase (admission, queue wait, coalesce wait,
// cache lookup, simulate), linked into a tree by trace and parent IDs.
//
// The package follows the DESIGN.md §6 arena contract so tracing can
// stay enabled in production without moving the allocation budgets:
//
//   - Spans are plain values (fixed-size attribute array, no maps, no
//     boxed interfaces) recorded into a preallocated ring buffer. The
//     steady-state hot path — Begin, SetInt/SetStr, End — performs
//     zero heap allocations (pinned by alloc_test.go).
//   - The Recorder exposes Reset(), restoring freshly-constructed
//     semantics while reusing the ring's capacity.
//   - Timestamps are nanoseconds on the process-local monotonic clock
//     (Now), so span math never goes backwards under wall-clock
//     adjustment and converts directly to Perfetto microseconds.
//
// Snapshot, TraceSpans and the export helpers (chrome.go) are cold
// paths: they copy under the lock and may allocate freely.
package otrace

import (
	"sync"
	"sync/atomic"
	"time"

	"wsrs/internal/ring"
)

// TraceID identifies one request/job trace. Zero means "no trace".
type TraceID uint64

// SpanID identifies one span within the recorder. Zero means "no
// parent" (a root span).
type SpanID uint64

// Ctx is the propagated trace context: which trace a new span belongs
// to and which span is its parent. The zero Ctx starts a fresh trace.
type Ctx struct {
	Trace TraceID
	Span  SpanID
}

// attrKind discriminates the typed attribute payload.
type attrKind uint8

const (
	attrNone attrKind = iota
	attrStr
	attrInt
	attrBool
)

// Attr is one typed span attribute. Fixed-size and value-typed so a
// span never drags a map allocation onto the hot path.
type Attr struct {
	Key  string
	Str  string
	Int  int64
	Kind attrKind
}

// Value renders the attribute payload for export.
func (a *Attr) Value() any {
	switch a.Kind {
	case attrStr:
		return a.Str
	case attrInt:
		return a.Int
	case attrBool:
		return a.Int != 0
	}
	return nil
}

// MaxAttrs bounds the typed attributes per span; SetInt/SetStr beyond
// the bound are dropped (counted in Span.Dropped) rather than grown.
const MaxAttrs = 6

// Span is one timed operation of a trace. Spans are built on the
// caller's stack (Begin/Make), annotated in place, and copied into
// the recorder ring by End/Append — the struct is all values, so the
// copy allocates nothing.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string
	// Start and End are nanoseconds on the package monotonic clock
	// (see Now); End == 0 means the span has not ended yet.
	Start int64
	End   int64

	NAttrs  int
	Dropped int
	Attrs   [MaxAttrs]Attr
}

// Dur returns the span duration in nanoseconds (0 if unended).
func (s *Span) Dur() int64 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Ctx returns the context that makes this span the parent of new
// child spans.
func (s *Span) Ctx() Ctx { return Ctx{Trace: s.Trace, Span: s.ID} }

func (s *Span) setAttr(a Attr) {
	if s.NAttrs >= MaxAttrs {
		s.Dropped++
		return
	}
	s.Attrs[s.NAttrs] = a
	s.NAttrs++
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) { s.setAttr(Attr{Key: key, Str: v, Kind: attrStr}) }

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) { s.setAttr(Attr{Key: key, Int: v, Kind: attrInt}) }

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	a := Attr{Key: key, Kind: attrBool}
	if v {
		a.Int = 1
	}
	s.setAttr(a)
}

// Attr returns the value of the named attribute (nil if absent).
func (s *Span) Attr(key string) any {
	for i := 0; i < s.NAttrs; i++ {
		if s.Attrs[i].Key == key {
			return s.Attrs[i].Value()
		}
	}
	return nil
}

// epoch anchors the package clock: Now() is nanoseconds since process
// start on the monotonic clock, epochWall converts back to wall time
// for logs and exports.
var (
	epoch     = time.Now()
	epochWall = epoch.Round(0) // strip the monotonic reading
)

// Now returns the current monotonic timestamp in nanoseconds since
// process start. It never goes backwards and never allocates.
func Now() int64 { return int64(time.Since(epoch)) }

// WallAt converts a monotonic timestamp from Now back to wall time.
func WallAt(ns int64) time.Time { return epochWall.Add(time.Duration(ns)) }

// EpochUnixUs returns the wall-clock anchor of the package clock —
// Unix microseconds at monotonic zero. Trace documents carry it so a
// stitcher can rebase spans from several processes (each with its own
// monotonic epoch) onto one shared timeline.
func EpochUnixUs() float64 { return float64(epochWall.UnixNano()) / 1e3 }

// splitmix64 scrambles the sequential trace counter so trace IDs look
// uniformly distributed (useful when sampling or sharding by trace)
// while staying cheap and allocation-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Recorder is a bounded span store: a preallocated ring buffer that
// keeps the most recent Cap() spans, plus the trace/span ID
// allocators. All methods are safe for concurrent use; the append
// path (End/Append) takes a short mutex and allocates nothing.
type Recorder struct {
	ids      atomic.Uint64 // span ID sequence (scrambled through spanSeed)
	traces   atomic.Uint64 // trace ID allocator (scrambled sequential)
	seed     uint64
	spanSeed uint64

	mu    sync.Mutex
	spans ring.Ring[Span]
}

// DefaultCapacity is the ring size NewRecorder selects for cap <= 0.
const DefaultCapacity = 8192

// NewRecorder builds a recorder holding at most cap spans (cap <= 0
// selects DefaultCapacity). The ring is allocated up front; appends
// never grow it.
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = DefaultCapacity
	}
	seed := uint64(time.Now().UnixNano())
	r := &Recorder{
		spans:    ring.New[Span](cap),
		seed:     seed,
		spanSeed: splitmix64(seed ^ 0xa5a5a5a5a5a5a5a5),
	}
	return r
}

// Reset restores freshly-constructed semantics — no spans, counters
// zeroed — while keeping the ring's capacity (the DESIGN.md §6 arena
// contract).
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.spans.Reset()
	r.mu.Unlock()
	r.ids.Store(0)
	r.traces.Store(0)
}

// NewTrace allocates a fresh trace ID.
func (r *Recorder) NewTrace() TraceID {
	return TraceID(splitmix64(r.seed + r.traces.Add(1)))
}

// AllocID allocates a span ID without recording anything — used when
// a span's ID must be referenced (as a parent) before the span itself
// is emitted, e.g. a job root span recorded only at job completion.
// IDs are the sequential counter scrambled through a per-recorder
// seed, so spans recorded by different recorders (and in particular by
// different processes of a fleet) never collide when their documents
// are stitched into one — parent references stay unambiguous across
// process tracks.
func (r *Recorder) AllocID() SpanID {
	id := SpanID(splitmix64(r.spanSeed + r.ids.Add(1)))
	if id == 0 {
		id = 1 // zero means "no parent"; never hand it out
	}
	return id
}

// Make builds an un-appended span with explicit timestamps under
// parent. A zero parent trace allocates a fresh trace. The span lives
// on the caller's stack until Append copies it into the ring.
func (r *Recorder) Make(name string, parent Ctx, start, end int64) Span {
	if parent.Trace == 0 {
		parent.Trace = r.NewTrace()
	}
	return Span{
		Trace:  parent.Trace,
		ID:     r.AllocID(),
		Parent: parent.Span,
		Name:   name,
		Start:  start,
		End:    end,
	}
}

// Begin builds a span starting now. End it with (*Recorder).End.
func (r *Recorder) Begin(name string, parent Ctx) Span {
	return r.Make(name, parent, Now(), 0)
}

// End stamps the span's end (if unset) and records it. The pointer is
// only read, never retained, so stack-built spans stay on the stack.
func (r *Recorder) End(sp *Span) {
	if sp.End == 0 {
		sp.End = Now()
	}
	r.Append(sp)
}

// Append copies one finished span into the ring, evicting the oldest
// span once the ring is full.
func (r *Recorder) Append(sp *Span) {
	r.mu.Lock()
	r.spans.Add(*sp)
	r.mu.Unlock()
}

// Len returns the number of spans currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.Len()
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.Cap()
}

// Total returns the number of spans ever appended; Total() - Len() is
// how many the ring has evicted.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.Total()
}

// Snapshot copies every held span, oldest first. Cold path.
func (r *Recorder) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.Copy(0)
}

// TraceSpans copies the held spans of one trace, oldest first. Spans
// already evicted by the ring are gone — callers surface Total() vs
// Len() when completeness matters.
func (r *Recorder) TraceSpans(t TraceID) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	r.spans.Range(0, func(sp *Span) {
		if sp.Trace == t {
			out = append(out, *sp)
		}
	})
	return out
}
