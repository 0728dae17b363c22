// Package telemetry is the dynamic activity and energy observability
// layer: where internal/probe answers "why is this run slow" (stall
// stacks, lifecycle traces), telemetry answers "how often does each
// guarded structure actually fire, and what does that cost" — the
// paper's Table 1 complexity claims measured in motion instead of
// asserted statically.
//
// The package has two halves:
//
//   - Activity (activity.go): fixed-slot event counters the timing
//     model owns and bumps on its hot path in every run — register-file
//     port accesses per subset, wake-up tag broadcasts per monitoring
//     domain, bypass network drives and consumptions, cross-cluster
//     move µops, free-list pressure. Counting is read-only observation:
//     it never changes the simulated timing.
//   - Registry (this file): a named counter/gauge/histogram registry
//     for the host-side harness (grid progress, cache hit rates,
//     per-cell wall time), exposable as Prometheus text exposition and
//     expvar for the live run endpoint of cmd/wsrsbench.
//
// energy.go folds Activity counts through the per-event energy costs
// of internal/cacti, internal/wakeup and internal/bypass into a
// dynamic energy stack (pJ/instr per component); chrometrace.go
// exports both the simulated pipeline and the host worker pool as
// Chrome trace-event JSON loadable in Perfetto.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous level that can move both ways (cells
// currently running, queue depth). Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HistogramBuckets is the fixed bucket count of Histogram: bucket i
// holds observations v with v < 1<<i, the last bucket is unbounded
// (+Inf), so the dynamic range spans 1 .. 2^(HistogramBuckets-1)
// regardless of the observed unit.
const HistogramBuckets = 28

// Histogram counts observations into fixed power-of-two buckets. The
// zero value is ready to use; all methods are safe for concurrent use.
// Values beyond the last finite bucket saturate into the +Inf bucket
// rather than being dropped, so Count always equals the number of
// Observe calls.
type Histogram struct {
	buckets [HistogramBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < HistogramBuckets-1 && v >= 1<<uint(i) {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values (wrapping on overflow,
// like every uint64 counter).
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// metricKind discriminates the registry's value types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name string // full series name, possibly with {labels}
	help string
	kind metricKind

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry is a named collection of counters, gauges and histograms.
// Registration takes a lock; the returned metric handles are lock-free
// atomics, so hot paths hold on to the handle instead of re-resolving
// the name. Metric names must match Prometheus conventions
// ([a-zA-Z_][a-zA-Z0-9_]*), optionally followed by a {label="value"}
// suffix that is emitted verbatim.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

// Labels formats a label suffix for a series name: Labels("k", "gzip")
// returns `{k="gzip"}`. Pairs are emitted in the given order.
func Labels(kv ...string) string {
	if len(kv) == 0 || len(kv)%2 != 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) lookup(name, help string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = &Histogram{}
	}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m
}

// Counter returns the named counter, registering it on first use. A
// name already registered as a different kind returns a fresh unlinked
// metric (never panics on the hot path); callers are expected to keep
// kinds consistent.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.lookup(name, help, kindCounter)
	if m.c == nil {
		return &Counter{}
	}
	return m.c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.lookup(name, help, kindGauge)
	if m.g == nil {
		return &Gauge{}
	}
	return m.g
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	m := r.lookup(name, help, kindHistogram)
	if m.h == nil {
		return &Histogram{}
	}
	return m.h
}

// family strips the label suffix off a series name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4): one # HELP / # TYPE pair per
// family, then the series. Families are emitted in sorted order so the
// exposition is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.SliceStable(metrics, func(i, j int) bool {
		fi, fj := family(metrics[i].name), family(metrics[j].name)
		if fi != fj {
			return fi < fj
		}
		return metrics[i].name < metrics[j].name
	})
	seen := ""
	for _, m := range metrics {
		f := family(m.name)
		if f != seen {
			seen = f
			typ := "counter"
			switch m.kind {
			case kindGauge:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f, typ); err != nil {
				return err
			}
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.c.Load())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.g.Load())
		case kindHistogram:
			err = writeHistogram(w, m.name, m.h)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series with cumulative buckets.
func writeHistogram(w io.Writer, name string, h *Histogram) error {
	base, labels := family(name), ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		labels = strings.TrimSuffix(name[i+1:], "}")
		if labels != "" {
			labels += ","
		}
	}
	var cum uint64
	for i := 0; i < HistogramBuckets; i++ {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < HistogramBuckets-1 {
			le = fmt.Sprint(uint64(1) << uint(i))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", base, labels, le, cum); err != nil {
			return err
		}
	}
	lb := ""
	if labels != "" {
		lb = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", base, lb, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, lb, h.Count())
	return err
}

// Snapshot returns the scalar metrics (counters and gauges) as a name
// -> value map, plus histogram _sum/_count pairs — the shape published
// over expvar and recorded into run manifests.
func (r *Registry) Snapshot() map[string]uint64 {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	out := make(map[string]uint64, len(metrics))
	for _, m := range metrics {
		switch m.kind {
		case kindCounter:
			out[m.name] = m.c.Load()
		case kindGauge:
			out[m.name] = uint64(m.g.Load())
		case kindHistogram:
			out[family(m.name)+"_sum"] = m.h.Sum()
			out[family(m.name)+"_count"] = m.h.Count()
		}
	}
	return out
}
