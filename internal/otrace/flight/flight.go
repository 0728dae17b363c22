// Package flight is the black-box flight recorder: a bounded
// per-process ring of recent activity (structured log records, phase
// samples, per-cell simulation summaries, fault observations) that can
// be snapshotted into a self-contained postmortem JSON artifact the
// moment something goes wrong — watchdog fire, check failure, cell
// panic, breaker-open, ejection — so diagnosing a fleet incident does
// not require having had the right verbosity enabled in advance.
//
// The recorder follows the same discipline as the otrace span ring it
// rides next to: the Record hot path appends a value-typed Event into
// a preallocated ring under a short mutex and allocates nothing
// (pinned by flight_test.go); Capture is the cold path that copies the
// ring, tails the span recorder, and (optionally) persists the
// artifact. All methods are nil-receiver safe so call sites need no
// "is the recorder wired" guards.
package flight

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"wsrs/internal/otrace"
	"wsrs/internal/ring"
)

// Event kinds — what part of the system produced a ring entry.
const (
	KindLog   = "log"   // slog record routed through Tee
	KindPhase = "phase" // lifecycle phase sample (µs in Value)
	KindSim   = "sim"   // one cell simulation summary
	KindFault = "fault" // fleet fault observation (retry, hedge, breaker)
	KindProbe = "probe" // health-probe transition
)

// Event is one flight-recorder ring entry. Value-typed (strings are
// shared, never built on the hot path) so Record never allocates.
type Event struct {
	NS     int64  `json:"ns"` // otrace.Now() monotonic timestamp
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Digest string `json:"digest,omitempty"` // cell content address, when known
	Value  int64  `json:"value,omitempty"`
}

// Snapshot is one self-contained postmortem artifact: identity of the
// process and failing cell, why it was taken, the event ring, and the
// most recent spans — everything needed to reconstruct the last moments
// without any other file.
type Snapshot struct {
	Process    string `json:"process"`
	PID        int    `json:"pid"`
	Seq        uint64 `json:"seq"`
	Reason     string `json:"reason"`
	CellDigest string `json:"cell_digest,omitempty"`
	Detail     string `json:"detail,omitempty"`
	Time       string `json:"time"` // wall clock, RFC3339Nano
	// TotalEvents counts events ever recorded; DroppedEvents how many
	// the ring evicted before this snapshot (non-zero means the window
	// is truncated at the old end).
	TotalEvents   uint64            `json:"events_total"`
	DroppedEvents uint64            `json:"events_dropped"`
	Events        []Event           `json:"events"`
	Spans         []otrace.SpanJSON `json:"spans,omitempty"`
	// Path is where the artifact was persisted ("" if memory-only).
	Path string `json:"path,omitempty"`
}

// Options configures a Recorder. The zero value is usable: an
// in-memory recorder with default bounds and no persistence.
type Options struct {
	// Process labels every snapshot ("coordinator", ":9001", ...).
	Process string
	// Events bounds the ring (default 4096).
	Events int
	// Dir, when set, is where Capture(..., persist) writes postmortem
	// JSON artifacts (the -postmortem-dir flag).
	Dir string
	// Spans, when set, contributes the tail of the span ring to every
	// snapshot.
	Spans *otrace.Recorder
	// MaxSnapshotSpans bounds that tail (default 512).
	MaxSnapshotSpans int
	// MinSnapshotGap debounces repeat captures for the same reason —
	// a breaker flapping under chaos must not write a thousand
	// artifacts. The first capture per reason is never debounced.
	// Default 100ms; negative disables debouncing.
	MinSnapshotGap time.Duration
	// MaxArtifacts caps files written to Dir per process lifetime
	// (default 64); memory snapshots continue past the cap.
	MaxArtifacts int
}

// Recorder is the per-process black box. All methods are safe for
// concurrent use and safe on a nil receiver.
type Recorder struct {
	opts Options

	mu         sync.Mutex
	events     ring.Ring[Event]
	seq        uint64
	lastSnap   map[string]int64 // reason -> last capture, otrace.Now() ns
	snapshots  []*Snapshot      // most recent kept, bounded
	suppressed uint64
	written    int
}

// keepSnapshots bounds the in-memory snapshot history. Past it, the
// oldest snapshot whose reason also has a newer one is dropped, so a
// flood of one reason (a flapping backend ejected again and again)
// never evicts the newest snapshot of another (the failed cell).
const keepSnapshots = 16

// New builds a flight recorder.
func New(opts Options) *Recorder {
	if opts.Events <= 0 {
		opts.Events = 4096
	}
	if opts.MaxSnapshotSpans <= 0 {
		opts.MaxSnapshotSpans = 512
	}
	if opts.MinSnapshotGap == 0 {
		opts.MinSnapshotGap = 100 * time.Millisecond
	}
	if opts.MaxArtifacts <= 0 {
		opts.MaxArtifacts = 64
	}
	if opts.Dir != "" {
		// Best effort: a missing dir must not stop the process from
		// starting — persistence just degrades to memory-only.
		_ = os.MkdirAll(opts.Dir, 0o755)
	}
	return &Recorder{
		opts:     opts,
		events:   ring.New[Event](opts.Events),
		lastSnap: map[string]int64{},
	}
}

// Record appends one event to the ring, evicting the oldest entry once
// full. Alloc-free; nil-safe no-op.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.NS == 0 {
		ev.NS = otrace.Now()
	}
	r.mu.Lock()
	r.events.Add(ev)
	r.mu.Unlock()
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.Len()
}

// Total returns the number of events ever recorded.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.Total()
}

// Snapshot captures and persists a postmortem artifact (debounced per
// reason). Returns nil when debounced or on a nil recorder.
func (r *Recorder) Snapshot(reason, cellDigest, detail string) *Snapshot {
	return r.Capture(reason, cellDigest, detail, true)
}

// Capture takes a snapshot of the black box: the event ring, the span
// tail, and the failure identity. persist additionally writes the
// artifact to Options.Dir (when configured and under the artifact
// cap). Captures for a reason seen less than MinSnapshotGap ago are
// suppressed and return nil — the first capture per reason never is.
func (r *Recorder) Capture(reason, cellDigest, detail string, persist bool) *Snapshot {
	if r == nil {
		return nil
	}
	now := otrace.Now()
	r.mu.Lock()
	if r.opts.MinSnapshotGap > 0 {
		if last, ok := r.lastSnap[reason]; ok && now-last < int64(r.opts.MinSnapshotGap) {
			r.suppressed++
			r.mu.Unlock()
			return nil
		}
	}
	r.lastSnap[reason] = now
	r.seq++
	snap := &Snapshot{
		Process:       r.opts.Process,
		PID:           os.Getpid(),
		Seq:           r.seq,
		Reason:        reason,
		CellDigest:    cellDigest,
		Detail:        detail,
		Time:          otrace.WallAt(now).Format(time.RFC3339Nano),
		TotalEvents:   r.events.Total(),
		DroppedEvents: r.events.Total() - uint64(r.events.Len()),
		Events:        r.events.Copy(0),
	}
	writeFile := persist && r.opts.Dir != "" && r.written < r.opts.MaxArtifacts
	if writeFile {
		r.written++
	}
	r.snapshots = append(r.snapshots, snap)
	if len(r.snapshots) > keepSnapshots {
		r.snapshots = evictSnapshot(r.snapshots)
	}
	r.mu.Unlock()

	if rec := r.opts.Spans; rec != nil {
		spans := rec.Snapshot()
		if len(spans) > r.opts.MaxSnapshotSpans {
			spans = spans[len(spans)-r.opts.MaxSnapshotSpans:]
		}
		snap.Spans = make([]otrace.SpanJSON, len(spans))
		for i := range spans {
			snap.Spans[i] = spans[i].JSON()
		}
	}
	if writeFile {
		path := filepath.Join(r.opts.Dir, fmt.Sprintf("postmortem-%06d-%s.json", snap.Seq, sanitize(reason)))
		if data, err := json.MarshalIndent(snap, "", "  "); err == nil {
			if err := os.WriteFile(path, data, 0o644); err == nil {
				snap.Path = path
			}
		}
	}
	return snap
}

// evictSnapshot drops one snapshot from the history: the oldest whose
// reason recurs later, or the oldest outright when every reason is
// distinct.
func evictSnapshot(snaps []*Snapshot) []*Snapshot {
	victim := 0
search:
	for i, s := range snaps {
		for _, later := range snaps[i+1:] {
			if later.Reason == s.Reason {
				victim = i
				break search
			}
		}
	}
	return append(snaps[:victim], snaps[victim+1:]...)
}

// sanitize maps a reason to a filename-safe token.
func sanitize(s string) string {
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			return c
		}
		return '-'
	}, s)
}

// Last returns the most recent snapshot (nil if none).
func (r *Recorder) Last() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.snapshots) == 0 {
		return nil
	}
	return r.snapshots[len(r.snapshots)-1]
}

// Snapshots returns the retained snapshot history, oldest first.
func (r *Recorder) Snapshots() []*Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Snapshot(nil), r.snapshots...)
}

// State is the live /debug/flightrecorder document: ring occupancy
// plus the retained snapshots (without re-capturing).
type State struct {
	Process       string      `json:"process"`
	PID           int         `json:"pid"`
	Events        int         `json:"events"`
	TotalEvents   uint64      `json:"events_total"`
	DroppedEvents uint64      `json:"events_dropped"`
	Suppressed    uint64      `json:"snapshots_suppressed"`
	Recent        []Event     `json:"recent_events"`
	Snapshots     []*Snapshot `json:"snapshots"`
}

// State snapshots the recorder's live state for serving. recentEvents
// bounds the included event tail (<= 0 means 64).
func (r *Recorder) State(recentEvents int) State {
	if r == nil {
		return State{}
	}
	if recentEvents <= 0 {
		recentEvents = 64
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	total := r.events.Total()
	return State{
		Process:       r.opts.Process,
		PID:           os.Getpid(),
		Events:        r.events.Len(),
		TotalEvents:   total,
		DroppedEvents: total - uint64(r.events.Len()),
		Suppressed:    r.suppressed,
		Recent:        r.events.Copy(total - min(total, uint64(recentEvents))),
		Snapshots:     append([]*Snapshot(nil), r.snapshots...),
	}
}

// teeHandler routes slog records into the flight recorder on their way
// to the real handler, so the black box always holds the recent log
// window regardless of the configured log level.
type teeHandler struct {
	next slog.Handler
	rec  *Recorder
}

// Tee wraps next so every record is also written into r's ring. The
// digest attribute, when present, is lifted into Event.Digest so
// snapshots can be joined to cells.
func Tee(next slog.Handler, r *Recorder) slog.Handler {
	if r == nil {
		return next
	}
	return &teeHandler{next: next, rec: r}
}

func (h *teeHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return true // the ring records every level
}

func (h *teeHandler) Handle(ctx context.Context, rec slog.Record) error {
	ev := Event{
		Kind:  KindLog,
		Name:  rec.Message,
		Value: int64(rec.Level),
	}
	if !rec.Time.IsZero() {
		ev.NS = rec.Time.Sub(otrace.WallAt(0)).Nanoseconds()
	}
	var detail strings.Builder
	rec.Attrs(func(a slog.Attr) bool {
		if a.Key == "digest" {
			ev.Digest = a.Value.String()
		}
		if detail.Len() > 0 {
			detail.WriteByte(' ')
		}
		detail.WriteString(a.Key)
		detail.WriteByte('=')
		detail.WriteString(a.Value.String())
		return true
	})
	ev.Detail = detail.String()
	h.rec.Record(ev)
	if h.next != nil && h.next.Enabled(ctx, rec.Level) {
		return h.next.Handle(ctx, rec)
	}
	return nil
}

func (h *teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	next := h.next
	if next != nil {
		next = next.WithAttrs(attrs)
	}
	return &teeHandler{next: next, rec: h.rec}
}

func (h *teeHandler) WithGroup(name string) slog.Handler {
	next := h.next
	if next != nil {
		next = next.WithGroup(name)
	}
	return &teeHandler{next: next, rec: h.rec}
}
