// Command bench is the repository's benchmark. It measures the two
// headline speeds of the reproduction — simulated µops per host second
// of one timing engine, and grid cells per second through the wsrsd
// job service — on four workloads, and checks every output it times.
//
//	bash bench/run.sh -workload engine-compute -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload serve-hot -seed 3 -trace 1
//	bash bench/run.sh -compare runs/parent runs/change
//
// An untraced run (-trace 0) prints every end-to-end metric as
// `name value unit`; a traced run (-trace 1) prints the per-layer
// metrics and a ledger of where the wall time went. Either ends with
// one JSON object on its last line. bench/README.md describes the
// workloads, the metrics and how to read a comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wsrs"
)

// workload is one set of inputs the benchmark runs. bench/README.md
// gives the reason for each.
type workload struct {
	name    string
	kernels []string
	// warmup and measure size every cell's instruction slices.
	warmup, measure uint64
	// minPasses bounds an engine run's timed phase from below: it
	// repeats passes over the cells until the run's seconds are spent
	// and at least this many passes ran.
	minPasses int
	// serve workloads drive an in-process wsrsd instead of the engine.
	serve       bool
	cellsPerJob int
	// minJobs bounds a serve run's timed phase from below, so the
	// 99th percentile of job latency has ten samples beyond it.
	minJobs int
	// pool is the size of serve-hot's prewarmed cell pool; 0 means
	// every timed cell is new to the daemon.
	pool int
	// checkEvery selects the 1-in-N of serve-cold's first minJobs jobs
	// whose results are compared with a local simulation after the
	// timed phase.
	checkEvery int
}

// configs are the two machines every workload runs: the conventional
// 4-cluster processor and the paper's WSRS design point.
var configs = []wsrs.ConfigName{wsrs.ConfRR256, wsrs.ConfWSRSRC512}

var workloads = []workload{
	{
		name:    "engine-compute",
		kernels: []string{"crafty", "wupwise", "galgel", "facerec"},
		warmup:  20_000, measure: 400_000, minPasses: 3,
	},
	{
		name:    "engine-memory",
		kernels: []string{"mcf", "swim", "mgrid", "applu"},
		warmup:  20_000, measure: 150_000, minPasses: 3,
	},
	{
		name: "serve-cold", serve: true, kernels: wsrs.Kernels(),
		warmup: 5_000, measure: 20_000, cellsPerJob: 2, minJobs: 1000, checkEvery: 20,
	},
	{
		name: "serve-hot", serve: true, kernels: wsrs.Kernels(),
		warmup: 5_000, measure: 20_000, cellsPerJob: 2, minJobs: 1000, pool: 64,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runOpts carries one run's settings to the workload drivers.
type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// start is when the process started; the first set-up is timed
	// from it.
	start time.Time
	// telcheck is the span-document validator the traced run executes;
	// spans is where it writes the document.
	telcheck string
	spans    string
	// log receives the traced run's ledger.
	log io.Writer
	// reference holds recorded engine results checked when a run's
	// cells match them (seed 1 at the workloads' own sizes).
	reference map[refKey]refCell
}

func main() {
	os.Exit(realMain(time.Now(), os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics, 0 the end-to-end metrics")
	out := fs.String("out", "", "also write the result, with the host's details, to this file")
	compare := fs.Bool("compare", false, "compare two directories of -out files: -compare <dirA> <dirB>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two directories")
			return 2
		}
		worse, err := compareDirs(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (valid: %s)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "bench: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	o := runOpts{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		start:     start,
		telcheck:  filepath.Join(filepath.Dir(exe), "telcheck"),
		spans:     filepath.Join(filepath.Dir(exe), "spans-"+w.name+".json"),
		log:       stdout,
		reference: ref,
	}
	oc, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	r := report(stdout, oc, defs)
	if *out != "" {
		r.Workload, r.Seed, r.Trace, r.Env = w.name, o.seed, o.trace, readHostEnv()
		if err := writeJSONFile(*out, r); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !r.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in the mode o selects.
func runWorkload(w workload, o runOpts) (*outcome, error) {
	if w.serve {
		return runServe(w, o)
	}
	return runEngine(w, o)
}

// repeatSetup runs a workload's set-up five times, each on the next
// CPU, and returns the median duration in seconds. The first
// repetition is timed from process start, so it includes the
// runtime's own start-up; the others start from a collected heap.
func repeatSetup(start time.Time, once func() error) (float64, error) {
	const reps = 5
	var secs []float64
	cpus := newCPURotor()
	defer cpus.stop()
	for r := 0; r < reps; r++ {
		cpus.next(r)
		if r > 0 {
			runtime.GC()
			start = time.Now()
		}
		if err := once(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
