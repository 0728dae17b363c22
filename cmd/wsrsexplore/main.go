// Command wsrsexplore drives a design-space exploration and prints
// the Pareto frontier: IPC (maximized) against dynamic energy in
// pJ/inst and the register-file area proxy (both minimized).
//
// By default the search runs in-process over the local simulator. With
// -addr it is submitted to a running wsrsd daemon instead (POST
// /v1/explore), following the server-sent progress events and fetching
// the byte-identical frontier document when the job completes — the
// two modes render the same bytes for the same request.
//
// The space is given axis by axis as comma-separated value lists; the
// defaults reproduce the CI smoke space. Before any simulation, every
// point whose register file is larger than an otherwise identical,
// already rename-sufficient one is pruned: the two simulate
// cycle-identically. Pruned points are listed in the document with
// that smaller witness.
//
// Usage:
//
//	wsrsexplore                                       # smoke space, local
//	wsrsexplore -clusters 2,4,8 -regs 512,1024 -policies RR,RC
//	wsrsexplore -clusters 4 -regs 128,384 -spec write,wsrs -policies RC,RM
//	wsrsexplore -strategy halving -rounds 3 -out frontier.json
//	wsrsexplore -addr http://127.0.0.1:8080 -out frontier.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wsrs/internal/explore"
	"wsrs/internal/report"
	"wsrs/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "submit to this wsrsd daemon instead of exploring in-process")
	clusters := flag.String("clusters", "2,4", "cluster-count axis")
	widths := flag.String("widths", "2", "per-cluster issue-width axis")
	regs := flag.String("regs", "384,512,1024", "physical-register axis (per class)")
	iq := flag.String("iq", "16,56", "per-cluster scheduler-entries axis")
	rob := flag.String("rob", "64", "reorder-buffer axis")
	spec := flag.String("spec", "none,wsrs", "specialization axis (none, write, wsrs)")
	policies := flag.String("policies", "RR,RC", "steering-policy axis")
	kernels := flag.String("kernels", "gzip", "benchmark kernels averaged per point")
	strategy := flag.String("strategy", explore.StrategyGrid, "search strategy: grid, random or halving")
	seed := flag.Int64("seed", 1, "search and simulation seed")
	samples := flag.Int("samples", 0, "random strategy: sample size (0 = default)")
	rounds := flag.Int("rounds", 0, "halving strategy: evaluation rounds (0 = default)")
	eta := flag.Int("eta", 0, "halving strategy: keep ceil(n/eta) per round (0 = default)")
	warmup := flag.Uint64("warmup", 2_000, "warmup instructions per cell")
	measure := flag.Uint64("measure", 8_000, "measured instructions per cell")
	parallelism := flag.Int("parallelism", 0, "local mode: simulation workers (0 = GOMAXPROCS)")
	checkpoint := flag.String("checkpoint", "", "local mode: JSONL checkpoint file making the evaluation resumable")
	out := flag.String("out", "", "write the frontier document to this file")
	quiet := flag.Bool("quiet", false, "suppress the progress stream on stderr")
	flag.Parse()

	req := explore.Request{
		Strategy: *strategy, Seed: *seed, Samples: *samples,
		Rounds: *rounds, Eta: *eta, Warmup: *warmup, Measure: *measure,
	}
	var err error
	if req.Space, err = parseSpace(*clusters, *widths, *regs, *iq, *rob, *spec, *policies, *kernels); err != nil {
		fatal(err)
	}

	if *addr != "" {
		err = runRemote(*addr, req, *out, *quiet)
	} else {
		err = runLocal(req, *parallelism, *checkpoint, *out, *quiet)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wsrsexplore:", err)
	os.Exit(1)
}

func parseSpace(clusters, widths, regs, iq, rob, spec, policies, kernels string) (explore.Space, error) {
	var s explore.Space
	var err error
	if s.Clusters, err = parseInts("clusters", clusters); err != nil {
		return s, err
	}
	if s.Widths, err = parseInts("widths", widths); err != nil {
		return s, err
	}
	if s.Regs, err = parseInts("regs", regs); err != nil {
		return s, err
	}
	if s.IQSizes, err = parseInts("iq", iq); err != nil {
		return s, err
	}
	if s.ROBSizes, err = parseInts("rob", rob); err != nil {
		return s, err
	}
	s.Specialize = parseStrings(spec)
	s.Policies = parseStrings(policies)
	s.Kernels = parseStrings(kernels)
	return s, nil
}

func parseInts(axis, csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad value %q", axis, f)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseStrings(csv string) []string {
	var out []string
	for _, f := range strings.Split(csv, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// progressObserver narrates the search on stderr.
type progressObserver struct{ quiet bool }

func (o progressObserver) Phase(name string) {
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "wsrsexplore: phase %s\n", name)
	}
}

func (o progressObserver) Progress(evaluated, pruned, frontier int) {
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "\rwsrsexplore: %d evaluated, %d pruned, frontier %d ",
			evaluated, pruned, frontier)
	}
}

func runLocal(req explore.Request, parallelism int, checkpoint, out string, quiet bool) error {
	ev := &explore.LocalEvaluator{Parallelism: parallelism, Checkpoint: checkpoint}
	doc, err := explore.Run(context.Background(), req, ev, progressObserver{quiet: quiet})
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	return emit(doc, out)
}

func runRemote(addr string, req explore.Request, out string, quiet bool) error {
	ctx := context.Background()
	client := &serve.Client{Base: strings.TrimRight(addr, "/")}
	st, err := client.SubmitExplore(ctx, &serve.ExploreRequest{Request: req, Label: "wsrsexplore"})
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "wsrsexplore: accepted as %s (trace %s), %d cells max\n",
			st.ID, st.TraceID, st.CellsTotal)
		// Follow the SSE stream for live progress; the poll below owns
		// completion, so a dropped stream is harmless.
		_ = client.ExploreEvents(ctx, st.ID, func(ev serve.ExploreEvent) bool {
			switch ev.Type {
			case "phase":
				progressObserver{}.Phase(ev.Phase)
			case "progress":
				progressObserver{}.Progress(ev.Evaluated, ev.Pruned, ev.Frontier)
			}
			return true
		})
		fmt.Fprintln(os.Stderr)
	}
	final, err := client.WaitExplore(ctx, st.ID, 50*time.Millisecond)
	if err != nil {
		return err
	}
	if final.State != serve.StateDone {
		return fmt.Errorf("explore job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	raw, err := client.Frontier(ctx, final.ID)
	if err != nil {
		return err
	}
	var doc explore.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("frontier document: %w", err)
	}
	renderFrontier(&doc)
	if out != "" {
		// The served bytes are the artifact: write them verbatim so the
		// file is byte-identical to a local run of the same request.
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wsrsexplore: wrote %s\n", out)
	}
	return nil
}

func emit(doc *explore.Document, out string) error {
	renderFrontier(doc)
	if out == "" {
		return nil
	}
	raw, err := doc.Render()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wsrsexplore: wrote %s\n", out)
	return nil
}

func renderFrontier(doc *explore.Document) {
	t := report.NewTable(
		fmt.Sprintf("Pareto frontier — %s over %d points (%d invalid, %d pruned, %d evaluated, %d dominated)",
			doc.Strategy, doc.RawPoints, doc.Skipped, len(doc.PrunedSet), doc.Evaluated, len(doc.Dominated)),
		"clusters", "width", "regs", "iq", "rob", "spec", "policy", "IPC", "pJ/inst", "area")
	for _, e := range doc.Frontier {
		p := e.Point
		t.AddRow(p.Clusters, p.Width, p.Regs, p.IQ, p.ROB, p.Specialize, p.Policy,
			fmt.Sprintf("%.4f", e.IPC), fmt.Sprintf("%.1f", e.EnergyPJ), fmt.Sprintf("%.0f", e.Area))
	}
	t.Render(os.Stdout)
}
