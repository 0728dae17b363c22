package explore

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	wsrs "wsrs"
)

// Search strategies.
const (
	StrategyGrid    = "grid"    // every simulable point of the space
	StrategyRandom  = "random"  // seeded sample without replacement
	StrategyHalving = "halving" // successive halving over growing windows
)

// Strategies lists the valid strategy names.
func Strategies() []string { return []string{StrategyGrid, StrategyHalving, StrategyRandom} }

// Defaults of a normalized request.
const (
	DefaultWarmup  = 20_000
	DefaultMeasure = 60_000
	DefaultSamples = 16
	DefaultRounds  = 3
	DefaultEta     = 2

	// Halving floor: early rounds shrink the measured window but
	// never below these, so every round still measures something.
	minRoundWarmup  = 1_000
	minRoundMeasure = 4_000
)

// Request is one exploration: a space, a strategy and its knobs. The
// zero value of every optional field selects a default (Normalize).
type Request struct {
	Space    Space  `json:"space"`
	Strategy string `json:"strategy,omitempty"` // default grid
	Seed     int64  `json:"seed,omitempty"`     // default 1
	// Samples bounds the random strategy's sample size.
	Samples int `json:"samples,omitempty"`
	// Rounds and Eta shape successive halving: Rounds evaluation
	// rounds over windows growing toward Measure, keeping ceil(n/Eta)
	// candidates per round.
	Rounds int `json:"rounds,omitempty"`
	Eta    int `json:"eta,omitempty"`
	// Prefilter enables the analytic pre-filter (default true).
	Prefilter *bool `json:"prefilter,omitempty"`
	// Margin is the pre-filter's safety margin (default
	// DefaultMargin).
	Margin  float64 `json:"margin,omitempty"`
	Warmup  uint64  `json:"warmup_insts,omitempty"`
	Measure uint64  `json:"measure_insts,omitempty"`
}

// Normalize fills defaulted fields in place.
func (r *Request) Normalize() {
	if r.Strategy == "" {
		r.Strategy = StrategyGrid
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Samples == 0 {
		r.Samples = DefaultSamples
	}
	if r.Rounds == 0 {
		r.Rounds = DefaultRounds
	}
	if r.Eta == 0 {
		r.Eta = DefaultEta
	}
	if r.Prefilter == nil {
		t := true
		r.Prefilter = &t
	}
	if r.Margin == 0 {
		r.Margin = DefaultMargin
	}
	if r.Warmup == 0 {
		r.Warmup = DefaultWarmup
	}
	if r.Measure == 0 {
		r.Measure = DefaultMeasure
	}
}

// Validate reports every structural problem of a normalized request.
func (r *Request) Validate() []FieldError {
	errs := r.Space.Validate()
	valid := Strategies()
	found := false
	for _, s := range valid {
		found = found || s == r.Strategy
	}
	if !found {
		errs = append(errs, FieldError{Field: "strategy",
			Msg: fmt.Sprintf("unknown strategy %q", r.Strategy), Valid: valid})
	}
	if r.Samples < 1 {
		errs = append(errs, FieldError{Field: "samples", Msg: "must be positive"})
	}
	if r.Rounds < 1 || r.Rounds > 8 {
		errs = append(errs, FieldError{Field: "rounds", Msg: "must be in [1,8]"})
	}
	if r.Eta < 2 {
		errs = append(errs, FieldError{Field: "eta", Msg: "must be at least 2"})
	}
	if r.Margin < 0 || r.Margin >= 1 {
		errs = append(errs, FieldError{Field: "margin", Msg: "must be in [0,1)"})
	}
	if r.Measure < minRoundMeasure {
		errs = append(errs, FieldError{Field: "measure_insts",
			Msg: fmt.Sprintf("must be at least %d", minRoundMeasure)})
	}
	return errs
}

// ValidationError aggregates field errors into one error value.
type ValidationError struct {
	Errors []FieldError
}

func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Errors))
	for i, fe := range e.Errors {
		msgs[i] = fe.Error()
	}
	return "explore: invalid request: " + strings.Join(msgs, "; ")
}

// Cell is one cycle-accurate simulation the search needs: a base
// configuration plus the canonical mods string and explicit policy of
// a design point, on one kernel. The serving layer maps it 1:1 onto
// its content-addressed cell identity, so repeated explorations (and
// overlapping spaces) reuse cached results.
type Cell struct {
	Kernel string
	Config wsrs.ConfigName
	Policy string
	Mods   string
}

// CellFor binds a point to a kernel.
func CellFor(p Point, kernel string) Cell {
	return Cell{Kernel: kernel, Config: p.Config(), Policy: p.Policy, Mods: p.Mods()}
}

// EvalOpts carries the simulation window of one evaluation batch.
type EvalOpts struct {
	Warmup  uint64
	Measure uint64
	Seed    int64
}

// Outcome is one finished cell. Err marks a per-cell failure; Cached
// reports a checkpoint/cache hit (informational only).
type Outcome struct {
	Result wsrs.Result
	Cached bool
	Err    error
}

// Evaluator runs a batch of cells, returning one outcome per cell in
// order. Implementations must be deterministic in the results they
// return (order and values); they are free to parallelize, cache or
// distribute the work. The search prices energy from Result.Activity,
// which every run carries.
type Evaluator interface {
	Evaluate(ctx context.Context, cells []Cell, opts EvalOpts) ([]Outcome, error)
}

// LocalEvaluator evaluates cells in-process over wsrs.RunGrid.
type LocalEvaluator struct {
	// Parallelism bounds the grid worker pool (0 = GOMAXPROCS).
	Parallelism int
	// Checkpoint optionally names a JSONL file making evaluations
	// resumable (the standard RunGrid checkpoint format).
	Checkpoint string
}

// Evaluate implements Evaluator.
func (e *LocalEvaluator) Evaluate(ctx context.Context, cells []Cell, opts EvalOpts) ([]Outcome, error) {
	grid := make([]wsrs.GridCell, len(cells))
	for i, c := range cells {
		mods, err := wsrs.ParseMods(c.Mods)
		if err != nil {
			return nil, fmt.Errorf("explore: cell %d: %w", i, err)
		}
		grid[i] = wsrs.GridCell{Kernel: c.Kernel, Config: c.Config,
			Policy: c.Policy, Mods: mods, ModsKey: c.Mods}
	}
	so := wsrs.SimOpts{
		WarmupInsts:  opts.Warmup,
		MeasureInsts: opts.Measure,
		Seed:         opts.Seed,
		Parallelism:  e.Parallelism,
		Checkpoint:   e.Checkpoint,
		Cancel:       ctx.Done(),
	}
	res, err := wsrs.RunGrid(grid, so, e.Parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]Outcome, len(res))
	for i, r := range res {
		out[i] = Outcome{Result: r.Result, Cached: r.Resumed, Err: r.Err}
	}
	return out, nil
}

// Observer receives search progress; the serving layer streams it out
// as SSE events. Calls arrive from the searching goroutine only. A
// nil Observer is valid.
type Observer interface {
	// Phase marks the start of a search phase ("enumerate",
	// "prefilter", "evaluate", "round 2/3", "frontier").
	Phase(name string)
	// Progress reports monotone counters: points evaluated so far,
	// points pruned by the pre-filter, current frontier size (0 until
	// computed).
	Progress(evaluated, pruned, frontier int)
}

type nopObserver struct{}

func (nopObserver) Phase(string)           {}
func (nopObserver) Progress(int, int, int) {}

// Run executes one exploration end to end: enumerate, select,
// pre-filter, evaluate via ev, build the frontier document. The
// document is deterministic for a given (space, strategy, seed,
// windows): byte-identical across runs, hosts and evaluators.
func Run(ctx context.Context, req Request, ev Evaluator, obs Observer) (*Document, error) {
	if obs == nil {
		obs = nopObserver{}
	}
	r := req
	r.Normalize()
	if errs := r.Validate(); len(errs) > 0 {
		return nil, &ValidationError{Errors: errs}
	}
	canon := r.Space.Canon()

	obs.Phase("enumerate")
	points, skipped := canon.Enumerate()
	if len(points) == 0 {
		return nil, fmt.Errorf("explore: space enumerates to zero simulable points (%d combinations all jointly invalid)", skipped)
	}

	// Strategy selection happens before the pre-filter so a random
	// sample is a property of the space and seed alone.
	if r.Strategy == StrategyRandom && r.Samples < len(points) {
		rng := rand.New(rand.NewSource(r.Seed))
		perm := rng.Perm(len(points))[:r.Samples]
		sort.Ints(perm)
		sel := make([]Point, 0, r.Samples)
		for _, i := range perm {
			sel = append(sel, points[i])
		}
		points = sel
	}
	selected := len(points)

	obs.Phase("prefilter")
	cands := make([]Candidate, len(points))
	for i, p := range points {
		cands[i] = NewCandidate(p)
	}
	var pruned []Pruned
	survivors := cands
	if *r.Prefilter {
		survivors, pruned = Prefilter(cands, r.Margin)
	} else {
		survivors = append([]Candidate(nil), cands...)
		sort.Slice(survivors, func(i, j int) bool { return survivors[i].Digest < survivors[j].Digest })
	}
	obs.Progress(0, len(pruned), 0)
	if len(survivors) == 0 {
		return nil, fmt.Errorf("explore: pre-filter pruned all %d points (margin %.2f)", selected, r.Margin)
	}

	var evals []Eval
	var err error
	switch r.Strategy {
	case StrategyHalving:
		evals, err = runHalving(ctx, r, canon.Kernels, survivors, ev, obs, len(pruned))
	default:
		obs.Phase("evaluate")
		evals, err = evaluate(ctx, r, canon.Kernels, survivors, ev,
			EvalOpts{Warmup: r.Warmup, Measure: r.Measure, Seed: r.Seed}, obs, len(pruned))
	}
	if err != nil {
		return nil, err
	}

	obs.Phase("frontier")
	frontier, dominated := Frontier(evals)
	obs.Progress(len(evals), len(pruned), len(frontier))

	return &Document{
		Version:     1,
		SpaceDigest: canon.Digest(),
		Space:       canon,
		Strategy:    r.Strategy,
		Seed:        r.Seed,
		Warmup:      r.Warmup,
		Measure:     r.Measure,
		Prefiltered: *r.Prefilter,
		Margin:      r.Margin,
		RawPoints:   canon.Size(),
		Skipped:     skipped,
		Selected:    selected,
		Evaluated:   len(evals),
		Frontier:    frontier,
		Dominated:   dominated,
		PrunedSet:   pruned,
	}, nil
}

// evaluate runs one batch of candidates (every candidate × every
// kernel in one Evaluator call, so implementations can parallelize
// freely) and aggregates per-point objectives: arithmetic mean IPC and
// mean priced pJ/inst over the sorted kernel set.
func evaluate(ctx context.Context, r Request, kernels []string, cands []Candidate,
	ev Evaluator, opts EvalOpts, obs Observer, prunedCount int) ([]Eval, error) {
	cells := make([]Cell, 0, len(cands)*len(kernels))
	for _, c := range cands {
		for _, k := range kernels {
			cells = append(cells, CellFor(c.Point, k))
		}
	}
	outs, err := ev.Evaluate(ctx, cells, opts)
	if err != nil {
		return nil, err
	}
	if len(outs) != len(cells) {
		return nil, fmt.Errorf("explore: evaluator returned %d outcomes for %d cells", len(outs), len(cells))
	}
	evals := make([]Eval, len(cands))
	for i, c := range cands {
		model := EnergyModelFor(c.Point)
		e := Eval{Point: c.Point, Digest: c.Digest, Area: c.Area, Analytic: c.Analytic}
		for j, k := range kernels {
			o := outs[i*len(kernels)+j]
			if o.Err != nil {
				return nil, fmt.Errorf("explore: point %s kernel %s: %w", c.Digest[:12], k, o.Err)
			}
			stack := model.Stack(&o.Result.Activity, o.Result.Insts)
			e.Kernels = append(e.Kernels, KernelEval{
				Kernel:   k,
				IPC:      o.Result.IPC,
				EnergyPJ: stack.TotalPJPerInst(),
				Cycles:   o.Result.Cycles,
				Cached:   o.Cached,
			})
		}
		for _, ke := range e.Kernels {
			e.IPC += ke.IPC
			e.EnergyPJ += ke.EnergyPJ
		}
		e.IPC /= float64(len(kernels))
		e.EnergyPJ /= float64(len(kernels))
		evals[i] = e
		obs.Progress(i+1, prunedCount, 0)
	}
	return evals, nil
}

// runHalving implements successive halving: Rounds evaluation rounds
// over windows growing toward the full (Warmup, Measure), keeping the
// best ceil(n/Eta) candidates per round by Pareto rank (frontier
// peeling), then IPC, then digest. Deterministic for a given seed and
// resumable per round through the evaluator's caching/checkpointing.
func runHalving(ctx context.Context, r Request, kernels []string, cands []Candidate,
	ev Evaluator, obs Observer, prunedCount int) ([]Eval, error) {
	cur := cands
	for round := 0; round < r.Rounds; round++ {
		shift := uint(r.Rounds - 1 - round)
		opts := EvalOpts{Warmup: r.Warmup >> shift, Measure: r.Measure >> shift, Seed: r.Seed}
		if opts.Warmup < minRoundWarmup {
			opts.Warmup = minRoundWarmup
		}
		if opts.Measure < minRoundMeasure {
			opts.Measure = minRoundMeasure
		}
		obs.Phase(fmt.Sprintf("round %d/%d", round+1, r.Rounds))
		evals, err := evaluate(ctx, r, kernels, cur, ev, opts, obs, prunedCount)
		if err != nil {
			return nil, err
		}
		if round == r.Rounds-1 {
			return evals, nil
		}
		keep := (len(cur) + r.Eta - 1) / r.Eta
		if keep < 1 {
			keep = 1
		}
		ranked := rankByFrontier(evals)
		if len(ranked) > keep {
			ranked = ranked[:keep]
		}
		next := make([]Candidate, 0, len(ranked))
		byDigest := map[string]Candidate{}
		for _, c := range cur {
			byDigest[c.Digest] = c
		}
		for _, e := range ranked {
			next = append(next, byDigest[e.Digest])
		}
		sort.Slice(next, func(i, j int) bool { return next[i].Digest < next[j].Digest })
		cur = next
	}
	return nil, fmt.Errorf("explore: halving with zero rounds")
}

// rankByFrontier orders evaluations by Pareto rank (repeatedly
// peeling the frontier), breaking ties by IPC descending then digest.
func rankByFrontier(evals []Eval) []Eval {
	rest := append([]Eval(nil), evals...)
	var out []Eval
	for len(rest) > 0 {
		front, dom := Frontier(rest)
		out = append(out, front...)
		rest = rest[:0]
		for _, d := range dom {
			rest = append(rest, d.Eval)
		}
	}
	return out
}
