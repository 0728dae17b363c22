package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"time"

	"wsrs"
	"wsrs/internal/otrace"
)

// engineCells lists a workload's cells in run order: every kernel on
// every configuration.
func engineCells(w workload, seed int64) []cell {
	var cells []cell
	for _, k := range w.kernels {
		for _, c := range configs {
			cells = append(cells, cell{kernel: k, config: c, seed: seed})
		}
	}
	return cells
}

// expectations holds the first result of each cell; every later run
// of the cell, traced or checked, must equal it.
type expectations struct {
	want []*wsrs.Result
}

func (e *expectations) check(oc *outcome, i int, c cell, res wsrs.Result, what string) {
	if e.want[i] == nil {
		e.want[i] = &res
		return
	}
	if !reflect.DeepEqual(*e.want[i], res) {
		oc.fail("%v: %s result differs from the first run", c, what)
	}
}

func (e *expectations) results() []wsrs.Result {
	var out []wsrs.Result
	for _, r := range e.want {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// passStats is what the timed passes of an engine run measured.
type passStats struct {
	best   []time.Duration // each cell's fastest run; 0 if every run failed
	uops   []uint64        // each cell's measured µops
	passes int
	cells  int
	wall   time.Duration
}

// timedPasses runs passes over the cells until dur has passed and at
// least minPasses ran, each pass on the next CPU. one simulates cell i
// and returns its wall time.
func timedPasses(cells []cell, dur time.Duration, minPasses int, oc *outcome, exp *expectations,
	what string, one func(i int) (wsrs.Result, time.Duration, error)) passStats {
	ps := passStats{best: make([]time.Duration, len(cells)), uops: make([]uint64, len(cells))}
	cpus := newCPURotor()
	defer cpus.stop()
	start := time.Now()
	for p := 0; p < minPasses || time.Since(start) < dur; p++ {
		cpus.next(p)
		for i, c := range cells {
			res, d, err := one(i)
			oc.Attempted++
			ps.cells++
			if err != nil {
				oc.fail("%v: %v", c, err)
				continue
			}
			exp.check(oc, i, c, res, what)
			if ps.best[i] == 0 || d < ps.best[i] {
				ps.best[i] = d
			}
			ps.uops[i] = res.Uops
		}
		ps.passes++
	}
	ps.wall = time.Since(start)
	return ps
}

// rates are the engine's end-to-end numbers, from each cell's best
// time: the host's CPUs run other tenants' work too, which slows a
// whole pass by up to half for seconds at a time, and a cell's fastest
// run is the one such slowdowns did not touch.
func (ps passStats) rates() (uopsPerS, cellsPerS float64, cellMs []float64) {
	var uops uint64
	var sum time.Duration
	n := 0
	for i, d := range ps.best {
		if d == 0 {
			cellMs = append(cellMs, math.Inf(1))
			continue
		}
		uops += ps.uops[i]
		sum += d
		n++
		cellMs = append(cellMs, d.Seconds()*1e3)
	}
	return ratio(float64(uops), sum.Seconds()), ratio(float64(n), sum.Seconds()), cellMs
}

func runEngine(w workload, o runOpts) (*outcome, error) {
	oc := newOutcome()
	seed := o.seed
	if seed == 0 {
		seed = 1 // wsrs.SimOpts reads seed 0 as 1
	}
	cells := engineCells(w, seed)
	opts := wsrs.SimOpts{WarmupInsts: w.warmup, MeasureInsts: w.measure, Seed: seed}

	// Set-up runs every kernel's functional simulation into the trace
	// cache and one untimed cell per kernel, cycling through the
	// configurations, so the timed passes replay warm traces on a warm
	// engine pool.
	setup, err := repeatSetup(o.start, func() error {
		wsrs.ResetTraceCache()
		for i, k := range w.kernels {
			if _, err := wsrs.RunKernel(configs[i%len(configs)], k, opts); err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	exp := &expectations{want: make([]*wsrs.Result, len(cells))}
	before := readMemSnap()
	ps := timedPasses(cells, o.seconds, w.minPasses, oc, exp, "untraced", func(i int) (wsrs.Result, time.Duration, error) {
		t0 := time.Now()
		res, err := wsrs.RunKernel(cells[i].config, cells[i].kernel, opts)
		return res, time.Since(t0), err
	})
	after := readMemSnap()
	v := oc.Values
	v["peak_rss_mb"] = peakRSSMB()
	v["setup_s"] = setup
	var cellMs []float64
	v["uops_per_s"], v["cells_per_s"], cellMs = ps.rates()
	v["job_p50_ms"] = percentile(cellMs, 50)
	v["job_p99_ms"] = percentile(cellMs, 99)
	runtimeMetrics(oc, before, after, ps.cells)

	checkEngine(oc, cells, opts, exp, o.reference)
	if o.trace {
		if err := traceEngine(oc, w, cells, o, exp); err != nil {
			return nil, err
		}
	}
	return oc, nil
}

// checkEngine reruns every cell with the self-checking layer on — the
// co-simulation oracle and the write/read-specialization legality
// checks — and compares it with the timed runs' result, and with the
// recorded reference where one exists for the cell.
func checkEngine(oc *outcome, cells []cell, opts wsrs.SimOpts, exp *expectations, ref map[refKey]refCell) {
	chk := opts
	chk.Check = true
	for i, c := range cells {
		oc.Attempted++
		res, err := wsrs.RunKernel(c.config, c.kernel, chk)
		if err != nil {
			oc.fail("%v: checked run: %v", c, err)
			continue
		}
		exp.check(oc, i, c, res, "checked")
		key := refKey{Kernel: c.kernel, Config: string(c.config), Seed: c.seed,
			Warmup: opts.WarmupInsts, Measure: opts.MeasureInsts}
		if want, ok := ref[key]; ok {
			if got := newRefCell(key, res); got != want {
				oc.fail("%v: result differs from the recorded reference: got %+v, want %+v", c, got, want)
			}
		}
	}
}

// spanCapacity bounds the traced run's span ring; a run that would
// overflow it fails rather than write a partial document.
const spanCapacity = 1 << 14

// traceEngine is the traced pass of an engine run: the same timed
// passes, now calling pipeline.Run directly with the trace cursor and
// the allocation policy wrapped, then the per-layer metrics, the
// ledger and the span document.
func traceEngine(oc *outcome, w workload, cells []cell, o runOpts, exp *expectations) error {
	// The traced pass replays traces from its own cache; free the
	// untraced pass's copies first.
	wsrs.ResetTraceCache()
	runtime.GC()
	l := newLayerRun()
	for _, c := range cells {
		if _, err := l.run(c, w.warmup, w.measure); err != nil {
			return err
		}
	}
	rec := otrace.NewRecorder(spanCapacity)
	root := rec.Begin("run", otrace.Ctx{})
	root.SetStr("workload", w.name)
	var pass otrace.Span
	ps := timedPasses(cells, o.seconds, w.minPasses, oc, exp, "traced", func(i int) (wsrs.Result, time.Duration, error) {
		if i == 0 {
			pass = rec.Begin("pass", root.Ctx())
		}
		start := otrace.Now()
		cr, err := l.run(cells[i], w.warmup, w.measure)
		if err == nil {
			l.record(cr)
		}
		sp := rec.Make("cell", pass.Ctx(), start, otrace.Now())
		sp.SetStr("kernel", cells[i].kernel)
		sp.SetStr("config", string(cells[i].config))
		rec.Append(&sp)
		if i == len(cells)-1 {
			rec.End(&pass)
		}
		return cr.res, time.Duration(cr.wallNs), err
	})
	rec.End(&root)

	if err := layerMetrics(oc, l, cells, ps.passes, w.warmup, w.measure); err != nil {
		return err
	}
	simCounts(oc, exp.results())
	v := oc.Values
	traced, _, _ := ps.rates()
	v["bench.trace_overhead_ratio"] = ratio(traced, v["uops_per_s"])
	reader, policy, pipe := l.selfNs()
	v["bench.unattributed_ratio"] = printLedger(o.log, w.name+" (traced passes)", float64(ps.wall), []ledgerRow{
		{"tracecache", reader},
		{"alloc", policy},
		{"pipeline (self)", pipe},
	})
	return writeSpans(oc, rec, root.Trace, w.name, o, "run,pass,cell")
}

// ledgerRow is one layer's self time in the traced run's ledger.
type ledgerRow struct {
	layer string
	ns    float64
}

// printLedger prints each layer's self time and the unattributed
// remainder, which together sum to total, and returns the remainder's
// share of total.
func printLedger(w io.Writer, title string, total float64, rows []ledgerRow) float64 {
	fmt.Fprintf(w, "ledger %s: %.3f s\n", title, total/1e9)
	rest := total
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %10.3f s %6.1f%%\n", r.layer, r.ns/1e9, 100*ratio(r.ns, total))
		rest -= r.ns
	}
	fmt.Fprintf(w, "  %-18s %10.3f s %6.1f%%\n", "unattributed", rest/1e9, 100*ratio(rest, total))
	return ratio(rest, total)
}

// writeSpans writes the traced run's span document and has
// cmd/telcheck validate it, requiring the named spans.
func writeSpans(oc *outcome, rec *otrace.Recorder, trace otrace.TraceID, label string, o runOpts, require string) error {
	if kept := rec.Len(); uint64(kept) != rec.Total() {
		return fmt.Errorf("span ring kept %d of %d spans", kept, rec.Total())
	}
	doc := otrace.NewDocument(trace, rec.TraceSpans(trace))
	doc.Label = label
	f, err := os.Create(o.spans)
	if err != nil {
		return err
	}
	if err := otrace.WriteDocument(f, doc); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", o.spans, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	out, err := exec.Command(o.telcheck, "-spans", o.spans, "-require-span", require).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		oc.fail("telcheck rejected the span document: %s", out)
	case err != nil:
		return fmt.Errorf("run telcheck (built next to the benchmark by bench/run.sh): %w", err)
	}
	oc.Attempted++
	fmt.Fprintf(o.log, "%s", out)
	return nil
}
