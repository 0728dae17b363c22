package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// runSet holds the end-to-end values of a directory of -out files by
// workload and metric.
type runSet map[string]map[string][]float64

// loadRuns reads every untraced result file in dir.
func loadRuns(dir string) (runSet, []string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	set := runSet{}
	var notes []string
	hosts := map[string]bool{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace || r.Workload == "" {
			continue
		}
		if !r.Correct {
			notes = append(notes, fmt.Sprintf("%s: %d of %d operations failed", f, r.Failed, r.Attempted))
		}
		if r.Env != nil {
			hosts[fmt.Sprintf("GOMAXPROCS=%d nproc=%d %s %q commit %s",
				r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.GoVersion, r.Env.CPUModel, r.Env.Commit)] = true
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
	}
	if len(set) == 0 {
		return nil, nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	for h := range hosts {
		notes = append(notes, "host: "+h)
	}
	slices.Sort(notes)
	return set, notes, nil
}

// compareDirs prints, for every workload and end-to-end metric, each
// side's run count, median and quartiles and a verdict on B against
// A, and reports whether any metric is worse.
func compareDirs(dirA, dirB string, w io.Writer) (bool, error) {
	a, notesA, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, notesB, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	for _, n := range notesA {
		fmt.Fprintf(w, "A %s\n", n)
	}
	for _, n := range notesB {
		fmt.Fprintf(w, "B %s\n", n)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tn A\tmedian A\tQ1 A\tQ3 A\tn B\tmedian B\tQ1 B\tQ3 B\tchange\tbound\tverdict")
	anyWorse := false
	for _, wl := range workloads {
		if a[wl.name] == nil && b[wl.name] == nil {
			continue
		}
		for _, d := range endToEnd {
			xa, xb := a[wl.name][d.Name], b[wl.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d\t\t\t\t%d\t\t\t\t\t%.0f%%\tmissing\n", wl.name, d.Name, len(xa), len(xb), 100*d.Bound)
				continue
			}
			v, change := verdict(d, xa, xb)
			anyWorse = anyWorse || v == "worse"
			qa1, qa3 := quartiles(xa)
			qb1, qb3 := quartiles(xb)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%d\t%.4g\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n",
				wl.name, d.Name, len(xa), median(xa), qa1, qa3, len(xb), median(xb), qb1, qb3,
				100*change, 100*d.Bound, v)
		}
	}
	return anyWorse, tw.Flush()
}

// verdict applies the no-regression rule to B against A: B's median
// may be worse than A's by at most the metric's bound. Where either
// side's spread (interquartile range over median) is wider than the
// bound, the result is "unresolved" — unless every B run is better
// than every A run ("within bound"), or every B run is worse than
// every A run and the medians are more than the bound apart ("worse").
// change is B's median relative to A's.
func verdict(d metricDef, xa, xb []float64) (v string, change float64) {
	ma, mb := median(xa), median(xb)
	change = ratio(mb-ma, ma)
	worseBy := change
	if d.Better == "higher" {
		worseBy = -change
	}
	spread := func(xs []float64, m float64) float64 {
		q1, q3 := quartiles(xs)
		return ratio(q3-q1, m)
	}
	loA, hiA := slices.Min(xa), slices.Max(xa)
	loB, hiB := slices.Min(xb), slices.Max(xb)
	allBetter, allWorse := hiB < loA, loB > hiA
	if d.Better == "higher" {
		allBetter, allWorse = loB > hiA, hiB < loA
	}
	switch {
	case max(spread(xa, ma), spread(xb, mb)) > d.Bound:
		if allBetter {
			return "within bound", change
		}
		if allWorse && worseBy > d.Bound {
			return "worse", change
		}
		return "unresolved", change
	case worseBy > d.Bound:
		return "worse", change
	}
	return "within bound", change
}
