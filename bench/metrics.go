package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// metricDef is one named number the benchmark reports. The tables
// below are the single source of the names, units, directions and
// bounds that BENCHMARK.json publishes; bench_test.go keeps the two in
// step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the simulator or of wsrsd sees,
// printed by every untraced run of every workload. Bound is the share
// of the parent's median by which a metric may worsen before a change
// counts as a regression. Each sits above the widest quartile spread
// the metric showed between runs on a shared 2-vCPU host, with margin
// (bench/README.md, Sizing).
var endToEnd = []metricDef{
	{"uops_per_s", "1/s", "higher", 0.15},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p99_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the numbers of the traced run: host time and work per
// module, counts from the modelled design, and the service's phases.
// Layer names are the repository's module names.
var perLayer = []metricDef{
	{"tracecache.ns_per_uop", "ns", "lower", 0},
	{"tracecache.uops", "count", "higher", 0},
	{"alloc.ns_per_call", "ns", "lower", 0},
	{"alloc.calls", "count", "higher", 0},
	{"pipeline.self_ns_per_uop", "ns", "lower", 0},
	{"pipeline.ns_per_cycle", "ns", "lower", 0},
	{"mem.ns_per_access", "ns", "lower", 0},
	{"mem.accesses", "count", "higher", 0},
	{"bpred.ns_per_branch", "ns", "lower", 0},
	{"bpred.branches", "count", "higher", 0},
	{"funcsim.ns_per_uop", "ns", "lower", 0},
	{"sim.cycles", "count", "lower", 0},
	{"sim.uops", "count", "higher", 0},
	{"sim.ipc", "ratio", "higher", 0},
	{"sim.mispredict_ratio", "ratio", "lower", 0},
	{"sim.l1_miss_ratio", "ratio", "lower", 0},
	{"sim.l2_miss_ratio", "ratio", "lower", 0},
	{"sim.stall_window_slots", "count", "lower", 0},
	{"sim.stall_rename_slots", "count", "lower", 0},
	{"sim.stall_redirect_slots", "count", "lower", 0},
	{"serve.submit_ms_p50", "ms", "lower", 0},
	{"serve.submit_ms_p99", "ms", "lower", 0},
	{"serve.wait_ms_p50", "ms", "lower", 0},
	{"serve.results_ms_p50", "ms", "lower", 0},
	{"serve.queue_ms_p50", "ms", "lower", 0},
	{"serve.queue_ms_p99", "ms", "lower", 0},
	{"serve.simulate_ms_p50", "ms", "lower", 0},
	{"serve.cache_ms_p50", "ms", "lower", 0},
	{"serve.outside_ms_p50", "ms", "lower", 0},
	{"serve.worker_busy_ratio", "ratio", "higher", 0},
	{"serve.sims", "count", "lower", 0},
	{"serve.cache_hits", "count", "higher", 0},
	{"serve.coalesced", "count", "higher", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "higher", 0},
	{"bench.unattributed_ratio", "ratio", "lower", 0},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes a non-finite value (the latency of a failed job)
// as the largest float, since JSON has no infinity.
func (m metricValue) MarshalJSON() ([]byte, error) {
	v := m.Value
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = math.MaxFloat64
	}
	return json.Marshal(struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}{v, m.Unit})
}

// outcome is what one run of one workload found: the operations it
// attempted and failed, and the metric values by name.
type outcome struct {
	Attempted int
	Failed    int
	Problems  []string
	Values    map[string]float64
}

func newOutcome() *outcome { return &outcome{Values: map[string]float64{}} }

// fail records one failed or wrong operation.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// merge adds the operations another goroutine's outcome counted.
func (o *outcome) merge(x *outcome) {
	o.Attempted += x.Attempted
	o.Failed += x.Failed
	for _, p := range x.Problems {
		if len(o.Problems) < 20 {
			o.Problems = append(o.Problems, p)
		}
	}
}

// result is the record of one run: the contract's four keys, plus the
// run's identity and host in the file written by -out.
type result struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
	Trace     bool                   `json:"trace,omitempty"`
	Env       *hostEnv               `json:"env,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric the run's mode names as `name value
// unit`, then the result object as the last line of w.
func report(w io.Writer, o *outcome, defs []metricDef) result {
	r := result{
		Correct:   o.Failed == 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := o.Values[d.Name]
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%s %s %s\n", d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
	}
	for _, p := range o.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	// Marshal cannot fail: every field is a plain value and
	// metricValue writes non-finite numbers as finite ones.
	line, _ := json.Marshal(result{
		Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
	return r
}
