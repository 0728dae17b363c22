package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	wsrs "wsrs"
)

// update regenerates the golden frontier document:
//
//	go test ./internal/explore -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden files")

type recordingObserver struct {
	phases    []string
	evaluated int
	pruned    int
	frontier  int
}

func (o *recordingObserver) Phase(name string) { o.phases = append(o.phases, name) }
func (o *recordingObserver) Progress(e, p, f int) {
	if e < o.evaluated {
		panic("evaluated counter went backwards")
	}
	o.evaluated, o.pruned, o.frontier = e, p, f
}

func runSmoke(t *testing.T, mutate func(*Request)) *Document {
	t.Helper()
	req := SmokeRequest()
	if mutate != nil {
		mutate(&req)
	}
	doc, err := Run(context.Background(), req, &LocalEvaluator{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestRunSmokeGrid(t *testing.T) {
	t.Parallel()
	obs := &recordingObserver{}
	req := SmokeRequest()
	doc, err := Run(context.Background(), req, &LocalEvaluator{}, obs)
	if err != nil {
		t.Fatal(err)
	}
	if doc.RawPoints != 48 || doc.Selected != 18 {
		t.Fatalf("accounting: raw %d selected %d, want 48/18", doc.RawPoints, doc.Selected)
	}
	if doc.Evaluated+len(doc.PrunedSet) != doc.Selected {
		t.Fatalf("evaluated %d + pruned %d != selected %d", doc.Evaluated, len(doc.PrunedSet), doc.Selected)
	}
	if len(doc.PrunedSet) == 0 {
		t.Fatalf("smoke space should exercise the pre-filter")
	}
	if len(doc.Frontier)+len(doc.Dominated) != doc.Evaluated {
		t.Fatalf("frontier %d + dominated %d != evaluated %d", len(doc.Frontier), len(doc.Dominated), doc.Evaluated)
	}
	if len(doc.Frontier) == 0 {
		t.Fatalf("empty frontier")
	}
	for _, e := range doc.Frontier {
		if e.IPC <= 0 || e.EnergyPJ <= 0 || e.Area <= 0 {
			t.Errorf("degenerate objectives on frontier point %s: %+v", e.Digest[:12], e)
		}
	}
	if obs.frontier != len(doc.Frontier) || obs.pruned != len(doc.PrunedSet) {
		t.Errorf("observer counters %d/%d disagree with document %d/%d",
			obs.frontier, obs.pruned, len(doc.Frontier), len(doc.PrunedSet))
	}
	if len(obs.phases) == 0 || obs.phases[0] != "enumerate" {
		t.Errorf("phases = %v", obs.phases)
	}
}

// TestRepeatedRunByteIdentical is the acceptance criterion: the same
// space, strategy and seed render byte-identical frontier documents.
func TestRepeatedRunByteIdentical(t *testing.T) {
	t.Parallel()
	a, err := runSmoke(t, nil).Render()
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSmoke(t, nil).Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("repeated exploration not byte-identical:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// memoEvaluator is a LocalEvaluator that keeps every result by cell
// and window, so an exhaustive reference and a prefiltered run share
// one simulation per cell and the raw results stay inspectable.
type memoEvaluator struct {
	local   LocalEvaluator
	results map[memoKey]wsrs.Result
}

type memoKey struct {
	Cell
	EvalOpts
}

func (m *memoEvaluator) Evaluate(ctx context.Context, cells []Cell, opts EvalOpts) ([]Outcome, error) {
	var miss []Cell
	for _, c := range cells {
		if _, ok := m.results[memoKey{c, opts}]; !ok {
			miss = append(miss, c)
		}
	}
	outs, err := m.local.Evaluate(ctx, miss, opts)
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		if o.Err != nil {
			return nil, o.Err
		}
		m.results[memoKey{miss[i], opts}] = o.Result
	}
	out := make([]Outcome, len(cells))
	for i, c := range cells {
		out[i] = Outcome{Result: m.results[memoKey{c, opts}]}
	}
	return out, nil
}

// pick draws between 1 and max distinct values from vals.
func pick[T any](rng *rand.Rand, vals []T, max int) []T {
	var out []T
	for _, i := range rng.Perm(len(vals))[:1+rng.Intn(max)] {
		out = append(out, vals[i])
	}
	return out
}

// randomRequest draws a small grid request over every axis, at the
// smoke request's window.
func randomRequest(rng *rand.Rand) Request {
	req := SmokeRequest()
	req.Space = Space{
		Clusters:   pick(rng, []int{2, 4, 8}, 2),
		Widths:     pick(rng, []int{1, 2, 4}, 2),
		Regs:       pick(rng, []int{128, 256, 384, 512, 768, 1024, 2048}, 3),
		IQSizes:    pick(rng, []int{8, 16, 32, 56}, 2),
		ROBSizes:   pick(rng, []int{32, 64, 128}, 1),
		Specialize: pick(rng, Specializations(), 2),
		Policies:   pick(rng, wsrs.PolicyNames(), 2),
		Kernels:    pick(rng, wsrs.Kernels(), 1),
	}
	return req
}

// checkPrefilterExact evaluates every enumerated point of a grid
// request, bypassing the prefilter, and checks the prefiltered run
// against that reference: the frontiers render byte-identical, and
// every pruned point simulates to a result equal to its witness's on
// every kernel. It returns the frontier size.
func checkPrefilterExact(t *testing.T, req Request) int {
	t.Helper()
	ev := &memoEvaluator{results: map[memoKey]wsrs.Result{}}
	canon := req.Space.Canon()
	points, _ := canon.Enumerate()
	opts := EvalOpts{Warmup: req.Warmup, Measure: req.Measure, Seed: req.Seed}
	all, err := evaluate(context.Background(), canon.Kernels, candidates(points), ev, opts, nopObserver{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Frontier(all)
	doc, err := Run(context.Background(), req, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	space := canon.Encode()
	t.Logf("%s: %d points, %d pruned, frontier %d", space, len(points), len(doc.PrunedSet), len(want))
	a, _ := json.MarshalIndent(want, "", "  ")
	b, _ := json.MarshalIndent(doc.Frontier, "", "  ")
	if !bytes.Equal(a, b) {
		t.Errorf("%s: prefiltered frontier differs from the exhaustive one:\n--- exhaustive ---\n%s\n--- prefiltered ---\n%s", space, a, b)
	}
	byDigest := map[string]Point{}
	for _, p := range points {
		byDigest[p.Digest()] = p
	}
	for _, p := range doc.PrunedSet {
		w, ok := byDigest[p.By]
		if !ok {
			t.Errorf("%s: pruned point %s names unknown witness %s", space, p.Point.Encode(), p.By)
			continue
		}
		for _, k := range canon.Kernels {
			got := ev.results[memoKey{CellFor(p.Point, k), opts}]
			wit := ev.results[memoKey{CellFor(w, k), opts}]
			if !reflect.DeepEqual(got, wit) {
				t.Errorf("%s: pruned %s simulates differently from witness %s on %s:\npruned  %+v\nwitness %+v",
					space, p.Point.Encode(), w.Encode(), k, got, wit)
			}
		}
	}
	return len(want)
}

// TestPrefilterNeverDropsFrontierPoint is the prefilter's safety
// property, checked by checkPrefilterExact on the smoke space and on
// seeded random spaces until four of them have a prune and a frontier
// of at least two points, so both halves of the property have
// something to get wrong.
func TestPrefilterNeverDropsFrontierPoint(t *testing.T) {
	t.Parallel()
	checkPrefilterExact(t, SmokeRequest())
	rng := rand.New(rand.NewSource(1))
	for found, draws := 0, 0; found < 4; draws++ {
		if draws == 100 {
			t.Fatalf("%d random spaces held only %d with a prune and a multi-point frontier", draws, found)
		}
		req := randomRequest(rng)
		points, _ := req.Space.Enumerate()
		if _, pruned := Prefilter(candidates(points)); len(pruned) == 0 {
			continue
		}
		if checkPrefilterExact(t, req) >= 2 {
			found++
		}
	}
}

func TestRandomStrategyDeterministic(t *testing.T) {
	t.Parallel()
	mutate := func(seed int64) func(*Request) {
		return func(r *Request) {
			r.Strategy = StrategyRandom
			r.Samples = 6
			r.Seed = seed
		}
	}
	a := runSmoke(t, mutate(7))
	b := runSmoke(t, mutate(7))
	ra, _ := a.Render()
	rb, _ := b.Render()
	if !bytes.Equal(ra, rb) {
		t.Fatalf("random strategy not deterministic per seed")
	}
	if a.Selected != 6 {
		t.Fatalf("selected %d, want 6 samples", a.Selected)
	}
	c := runSmoke(t, mutate(8))
	if c.SpaceDigest != a.SpaceDigest {
		t.Fatalf("space digest depends on seed")
	}
}

// TestHalvingDeterministic runs under -race in CI: two concurrent-free
// halving searches over the same request must agree byte for byte.
func TestHalvingDeterministic(t *testing.T) {
	t.Parallel()
	mutate := func(r *Request) {
		r.Strategy = StrategyHalving
		r.Rounds = 3
		r.Eta = 2
		r.Measure = 16_000
	}
	a := runSmoke(t, mutate)
	b := runSmoke(t, mutate)
	ra, _ := a.Render()
	rb, _ := b.Render()
	if !bytes.Equal(ra, rb) {
		t.Fatalf("halving not deterministic")
	}
	// ceil halving from the 10 pre-filter survivors: 10 → 5 → 3.
	if a.Evaluated >= a.Selected-len(a.PrunedSet) {
		t.Fatalf("halving evaluated %d final candidates, expected fewer than the %d survivors",
			a.Evaluated, a.Selected-len(a.PrunedSet))
	}
	if len(a.Frontier)+len(a.Dominated) != a.Evaluated {
		t.Fatalf("document accounting broken for halving")
	}
}

func TestRunValidationError(t *testing.T) {
	t.Parallel()
	req := SmokeRequest()
	req.Space.Policies = []string{"bogus"}
	req.Strategy = "psychic"
	_, err := Run(context.Background(), req, &LocalEvaluator{}, nil)
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("err = %v, want *ValidationError", err)
	}
	fields := map[string]bool{}
	for _, fe := range verr.Errors {
		fields[fe.Field] = true
	}
	if !fields["space.policies"] || !fields["strategy"] {
		t.Fatalf("missing field errors: %+v", verr.Errors)
	}
}

func TestRunCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, SmokeRequest(), &LocalEvaluator{}, nil)
	if err == nil {
		t.Fatalf("canceled run returned no error")
	}
}

// TestGoldenFrontierDocument locks the full smoke document byte for
// byte. Regenerate with -update after intended changes.
func TestGoldenFrontierDocument(t *testing.T) {
	t.Parallel()
	got, err := runSmoke(t, nil).Render()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "frontier_smoke.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with `go test ./internal/explore -run Golden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("frontier document differs from golden file; regenerate with -update if intended.\n--- got ---\n%.2000s", got)
	}
}

func TestLocalEvaluatorCheckpointResume(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "explore.ckpt")
	evalr := &LocalEvaluator{Checkpoint: ckpt}
	req := SmokeRequest()
	doc1, err := Run(context.Background(), req, evalr, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Second run resumes every cell from the checkpoint and must
	// produce the identical document.
	doc2, err := Run(context.Background(), req, evalr, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := doc1.Render()
	r2, _ := doc2.Render()
	if !bytes.Equal(r1, r2) {
		t.Fatalf("checkpoint resume changed the document")
	}
	cached := 0
	for _, e := range doc2.Frontier {
		for _, k := range e.Kernels {
			if k.Cached {
				cached++
			}
		}
	}
	if cached == 0 {
		t.Fatalf("no frontier cell was restored from the checkpoint on the second run")
	}
}
