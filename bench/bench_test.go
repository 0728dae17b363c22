package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"wsrs"
)

var update = flag.Bool("update", false, "rewrite testdata/reference.json from the engine workloads at seed 1")

// telcheckBin is cmd/telcheck, built once for the traced runs.
var telcheckBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "bench-test")
	if err != nil {
		panic(err)
	}
	telcheckBin = filepath.Join(dir, "telcheck")
	if out, err := exec.Command("go", "build", "-o", telcheckBin, "wsrs/cmd/telcheck").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic(string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric
// and workload tables of this package in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\nwant\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%+v\nwant\n%+v", b.PerLayer, perLayer)
	}
	largest := 0.0
	for _, d := range endToEnd {
		largest = max(largest, d.Bound)
	}
	for _, d := range endToEnd {
		if d.Name == "setup_s" && d.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", d.Bound, largest)
		}
	}
}

// tiny shrinks a workload to a size the test suite can afford.
func tiny(w workload) workload {
	w.warmup, w.measure = 1_000, 4_000
	w.minPasses = 1
	w.minJobs = 12
	if w.pool > 0 {
		w.pool = 6
	}
	if w.checkEvery > 0 {
		w.checkEvery = 4
	}
	return w
}

func tinyOpts(t *testing.T, trace bool, log *bytes.Buffer) runOpts {
	return runOpts{
		seed:     7,
		seconds:  10 * time.Millisecond,
		trace:    trace,
		start:    time.Now(),
		telcheck: telcheckBin,
		spans:    filepath.Join(t.TempDir(), "spans.json"),
		log:      log,
	}
}

// printed parses report's output: every `name value unit` line, and
// the result object on the last line.
func printed(t *testing.T, out string) (map[string]string, result) {
	t.Helper()
	units := map[string]string{}
	var last string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 3 {
			units[f[0]] = f[2]
		}
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not a JSON object: %q", last)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("last line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatal(err)
	}
	return units, r
}

// TestWorkloadsPrintEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks that every metric BENCHMARK.json
// names for the mode is printed with its unit and that the run's
// outputs checked out.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			oc, err := runWorkload(tiny(w), tinyOpts(t, trace, &log))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			defs := b.EndToEnd
			if trace {
				defs = b.PerLayer
			}
			var out bytes.Buffer
			report(&out, oc, defs)
			units, r := printed(t, out.String())
			for _, d := range defs {
				if units[d.Name] != d.Unit {
					t.Errorf("%s trace=%v: %s printed with unit %q, want %q", w.name, trace, d.Name, units[d.Name], d.Unit)
				}
				if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: result object lacks %s in %s", w.name, trace, d.Name, d.Unit)
				}
			}
			if !r.Correct || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v\n%s",
					w.name, trace, r.Correct, r.Attempted, r.Failed, oc.Problems, log.String())
			}
			if trace && !strings.Contains(log.String(), "ledger ") {
				t.Errorf("%s: traced run printed no ledger", w.name)
			}
		}
	}
}

// TestCorruptedReferenceIsFlagged gives a tiny engine run a reference
// recorded from the same cells, then one with a single count changed.
func TestCorruptedReferenceIsFlagged(t *testing.T) {
	w := tiny(workloads[0])
	o := tinyOpts(t, false, &bytes.Buffer{})
	o.reference = map[refKey]refCell{}
	for _, c := range engineCells(w, o.seed) {
		res, err := wsrs.RunKernel(c.config, c.kernel, wsrs.SimOpts{WarmupInsts: w.warmup, MeasureInsts: w.measure, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		k := refKey{Kernel: c.kernel, Config: string(c.config), Seed: c.seed, Warmup: w.warmup, Measure: w.measure}
		o.reference[k] = newRefCell(k, res)
	}
	oc, err := runEngine(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Failed != 0 {
		t.Fatalf("matching reference: %d failures: %v", oc.Failed, oc.Problems)
	}
	for k, c := range o.reference {
		c.Mem.L1Misses++
		o.reference[k] = c
		break
	}
	oc, err = runEngine(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Failed != 1 || !strings.Contains(strings.Join(oc.Problems, "\n"), "recorded reference") {
		t.Fatalf("corrupted reference: %d failures %v, want the one reference mismatch", oc.Failed, oc.Problems)
	}
}

// TestReference checks that the recorded reference covers every
// engine cell at seed 1; with -update it records the reference anew.
func TestReference(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	var cells []refCell
	for _, w := range workloads {
		if w.serve {
			continue
		}
		for _, c := range engineCells(w, 1) {
			k := refKey{Kernel: c.kernel, Config: string(c.config), Seed: 1, Warmup: w.warmup, Measure: w.measure}
			if !*update {
				if _, ok := ref[k]; !ok {
					t.Errorf("no reference for %v", k)
				}
				continue
			}
			res, err := wsrs.RunKernel(c.config, c.kernel, wsrs.SimOpts{WarmupInsts: w.warmup, MeasureInsts: w.measure, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, newRefCell(k, res))
		}
	}
	if *update {
		if err := writeJSONFile("testdata/reference.json", cells); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) (the exclusive method).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{4, 1}, 0.25, 4.75},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "uops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		expect string
	}{
		{"same", []float64{100, 101, 99, 100, 102}, []float64{101, 100, 99, 100, 100}, "within bound"},
		{"20% slower", []float64{100, 101, 99, 100, 102}, []float64{80, 81, 79, 80, 82}, "worse"},
		{"noisy, overlapping", []float64{60, 100, 140, 80, 120}, []float64{70, 95, 130, 85, 110}, "unresolved"},
		{"noisy, all better", []float64{60, 70, 80, 65, 75}, []float64{100, 140, 120, 110, 130}, "within bound"},
	} {
		if got, _ := verdict(d, tc.a, tc.b); got != tc.expect {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.expect)
		}
	}
}
