package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"wsrs"
	"wsrs/internal/otrace"
	flightrec "wsrs/internal/otrace/flight"
	"wsrs/internal/serve"
	"wsrs/internal/telemetry"
)

// Options sizes a Coordinator. The zero value of every field selects
// a sane default; only Backends is required (empty means every cell
// runs locally — a fleet of zero degrades to wsrs.RunGrid).
type Options struct {
	// Backends are the member daemons' base URLs (http://host:port).
	// Membership is fixed at startup; health probes eject and readmit
	// within this set.
	Backends []string
	// Vnodes is the virtual-node count per member (<= 0 selects
	// DefaultVnodes).
	Vnodes int

	// MaxAttempts bounds dispatches per cell across ring successors
	// (<= 0 selects 4); once exhausted the cell runs locally.
	MaxAttempts int
	// BaseBackoff/MaxBackoff shape the jittered exponential retry
	// delay (<= 0 select 50ms and 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HedgeAfter launches a second attempt on the next ring candidate
	// when the first has not resolved in time (0 selects 750ms; < 0
	// disables hedging).
	HedgeAfter time.Duration
	// CellTimeout is the per-attempt deadline (<= 0 selects 5m).
	CellTimeout time.Duration
	// PollInterval paces the job-status polling of a dispatched cell
	// (<= 0 selects 5ms).
	PollInterval time.Duration

	// ProbeInterval paces the background /readyz prober (0 selects 1s;
	// < 0 disables it — tests call ProbeNow directly). ProbeTimeout
	// bounds one probe (<= 0 selects 500ms). EjectAfter is the
	// consecutive-failure threshold (<= 0 selects 2).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	EjectAfter    int

	// BreakerThreshold/BreakerCooldown configure the per-backend
	// circuit breaker (<= 0 select 3 failures and 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// ScatterWidth bounds concurrent cells in RunCells (<= 0 selects
	// max(GOMAXPROCS, 4 per backend)).
	ScatterWidth int

	// Registry receives the fleet metric families (nil creates a
	// private one); wsrsd passes the daemon registry so one /metrics
	// scrape covers both layers. Tracer receives the fleet.cell spans
	// (nil creates a private recorder). Logger gets membership and
	// breaker transitions (nil discards). HTTP overrides the transport
	// (nil selects http.DefaultClient).
	Registry *telemetry.Registry
	Tracer   *otrace.Recorder
	Logger   *slog.Logger
	HTTP     *http.Client

	// Flight receives fleet fault observations (failed attempts,
	// hedges, breaker opens, ejections) and triggers black-box
	// postmortem snapshots — debounced per reason — on failed
	// attempts, hedge fires, breaker-open, ejection and fleet
	// exhaustion. nil disables recording — every flight call is
	// nil-receiver safe.
	Flight *flightrec.Recorder

	// Seed fixes the jitter RNG for reproducible tests (0 seeds from
	// the clock).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Vnodes <= 0 {
		o.Vnodes = DefaultVnodes
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 750 * time.Millisecond
	}
	if o.CellTimeout <= 0 {
		o.CellTimeout = 5 * time.Minute
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 5 * time.Millisecond
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 500 * time.Millisecond
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 2
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.ScatterWidth <= 0 {
		o.ScatterWidth = max(runtime.GOMAXPROCS(0), 4*len(o.Backends))
	}
	return o
}

// Coordinator scatters cells across a wsrsd fleet and gathers the
// results. It implements serve.CellRunner (wsrsd -peers wires it
// behind the job API) and serve.PeerFetcher (member daemons use the
// ring to find a digest's cache home). Build with New, stop the
// prober with Close.
type Coordinator struct {
	opts   Options
	ring   *Ring
	reg    *telemetry.Registry
	tracer *otrace.Recorder
	fr     *flightrec.Recorder // nil disables; every call is nil-safe
	log    *slog.Logger

	clients  map[string]*serve.Client // immutable after New
	breakers map[string]*Breaker
	health   *healthTracker

	rmu sync.Mutex
	rng *rand.Rand

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a coordinator over the configured backends (all admitted
// until probes say otherwise) and starts the background prober unless
// ProbeInterval < 0.
func New(o Options) *Coordinator {
	o = o.withDefaults()
	reg := o.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	tr := o.Tracer
	if tr == nil {
		tr = otrace.NewRecorder(0)
	}
	lg := o.Logger
	if lg == nil {
		lg = slog.New(slog.DiscardHandler)
	}
	seed := o.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Coordinator{
		opts:     o,
		ring:     NewRing(o.Vnodes),
		reg:      reg,
		tracer:   tr,
		fr:       o.Flight,
		log:      lg,
		clients:  make(map[string]*serve.Client, len(o.Backends)),
		breakers: make(map[string]*Breaker, len(o.Backends)),
		health:   newHealthTracker(o.EjectAfter),
		rng:      rand.New(rand.NewSource(seed)),
		stop:     make(chan struct{}),
	}
	for _, b := range o.Backends {
		c.ring.Add(b)
		c.clients[b] = &serve.Client{Base: b, HTTP: o.HTTP}
		c.breakers[b] = NewBreaker(o.BreakerThreshold, o.BreakerCooldown)
	}
	c.initMetrics()
	if o.ProbeInterval > 0 && len(o.Backends) > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	return c
}

// Close stops the background prober. In-flight cells are unaffected.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Registry exposes the coordinator's metric registry.
func (c *Coordinator) Registry() *telemetry.Registry { return c.reg }

// Tracer exposes the coordinator's span recorder.
func (c *Coordinator) Tracer() *otrace.Recorder { return c.tracer }

// Healthy returns the backends currently in the ring.
func (c *Coordinator) Healthy() []string { return c.ring.Members() }

// permanentError marks a failure retrying elsewhere cannot fix: the
// simulation itself rejected or deterministically failed the cell, so
// every backend (and a local run) would answer the same.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// attemptResult is one dispatched leg's outcome (original or hedge).
type attemptResult struct {
	res     wsrs.Result
	err     error
	backend string
	hedged  bool
}

// RunCell resolves one cell through the fleet: dispatch to its cache
// home, retry ring successors with jittered exponential backoff,
// hedge stragglers, and — when no backend is usable or every attempt
// failed — degrade gracefully to a local simulation, so a flaky fleet
// changes latency, never results. It implements serve.CellRunner.
func (c *Coordinator) RunCell(ctx context.Context, id serve.CellID) (wsrs.Result, time.Duration, error) {
	start := time.Now()
	digest := id.Digest()
	// The span parents to whatever trace context rides the ctx — in
	// coordinator-daemon mode the serve layer's simulate span — so the
	// job lifecycle, the fleet scatter and (via header propagation) the
	// backends' own spans share one trace ID.
	sp := c.tracer.Begin("fleet.cell", otrace.FromContext(ctx))
	sp.SetStr("kernel", id.Kernel)
	sp.SetStr("config", id.Config)
	ctx = otrace.ContextWith(ctx, sp.Ctx())
	outcome := "remote"
	defer func() {
		sp.SetStr("outcome", outcome)
		c.tracer.End(&sp)
		c.reg.Counter(mCells+telemetry.Labels("outcome", outcome), helpCells).Inc()
		c.reg.Histogram(mCellMs, helpCellMs).Observe(uint64(time.Since(start).Milliseconds()))
	}()

	backoff := c.opts.BaseBackoff
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		backend := c.pickBackend(digest, attempt)
		if backend == "" {
			// Fleet empty (or every breaker open): run the cell here.
			outcome = "local"
			c.reg.Counter(mFallbacks+telemetry.Labels("reason", "no-backend"), helpFallbacks).Inc()
			res, err := c.runLocal(ctx, id)
			if err != nil {
				outcome = failOutcome(ctx, err)
			}
			return res, time.Since(start), err
		}
		if attempt > 0 {
			c.reg.Counter(mRetries, helpRetries).Inc()
			if !sleepCtx(ctx, c.jitter(backoff)) {
				outcome = "canceled"
				return wsrs.Result{}, time.Since(start), ctx.Err()
			}
			backoff = min(backoff*2, c.opts.MaxBackoff)
		}
		res, err := c.attempt(ctx, backend, digest, id)
		if err == nil {
			sp.SetStr("backend", backend)
			sp.SetInt("attempts", int64(attempt+1))
			return res, time.Since(start), nil
		}
		if ctx.Err() != nil {
			outcome = "canceled"
			return wsrs.Result{}, time.Since(start), ctx.Err()
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			outcome = "failed"
			return wsrs.Result{}, time.Since(start), pe.err
		}
		lastErr = err
	}
	// Every attempt failed: the fleet is misbehaving, not the cell.
	outcome = "local"
	c.reg.Counter(mFallbacks+telemetry.Labels("reason", "exhausted"), helpFallbacks).Inc()
	c.fr.Snapshot("fleet-exhausted", digest, lastErr.Error())
	c.log.LogAttrs(ctx, slog.LevelWarn, "fleet attempts exhausted; running cell locally",
		slog.String("kernel", id.Kernel),
		slog.String("config", id.Config),
		slog.String("last_error", lastErr.Error()))
	res, err := c.runLocal(ctx, id)
	if err != nil {
		outcome = failOutcome(ctx, err)
		err = fmt.Errorf("fleet: %d attempts failed (last: %v); local fallback: %w",
			c.opts.MaxAttempts, lastErr, err)
	}
	return res, time.Since(start), err
}

func failOutcome(ctx context.Context, err error) string {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) {
		return "canceled"
	}
	return "failed"
}

// pickBackend chooses attempt's target: the cell's ring sequence
// rotated by the attempt number (home first, then successors), the
// first member whose breaker admits traffic.
func (c *Coordinator) pickBackend(digest string, attempt int) string {
	seq := c.ring.Seq(digest, 0)
	if len(seq) == 0 {
		return ""
	}
	for i := range seq {
		b := seq[(attempt+i)%len(seq)]
		if c.breakers[b].Allow() {
			return b
		}
	}
	return ""
}

// hedgeBackend picks a second target distinct from primary for a
// straggling attempt.
func (c *Coordinator) hedgeBackend(digest, primary string) string {
	for _, b := range c.ring.Seq(digest, 0) {
		if b != primary && c.breakers[b].Allow() {
			return b
		}
	}
	return ""
}

// attempt dispatches one cell to primary under the per-attempt
// deadline; if HedgeAfter elapses first, a hedge launches on the next
// ring candidate and the first leg to finish wins. Breakers see every
// leg's outcome.
func (c *Coordinator) attempt(ctx context.Context, primary, digest string, id serve.CellID) (wsrs.Result, error) {
	actx, cancel := context.WithTimeout(ctx, c.opts.CellTimeout)
	defer cancel() // the losing leg aborts as soon as a winner returns
	parent := otrace.FromContext(ctx)
	ch := make(chan attemptResult, 2)
	run := func(backend string, hedged bool) {
		c.reg.Counter(mAttempts, helpAttempts).Inc()
		// Each leg — original or hedge — gets its own span under the
		// fleet.cell span, and its context rides the request headers so
		// the backend's spans parent here. A losing hedge leg ends with
		// outcome "canceled": visibly abandoned on the stitched timeline.
		leg := c.tracer.Begin("fleet.attempt", parent)
		leg.SetStr("backend", backend)
		leg.SetBool("hedged", hedged)
		go func() {
			res, err := c.runOn(otrace.ContextWith(actx, leg.Ctx()), backend, id)
			switch {
			case err == nil:
				leg.SetStr("outcome", "ok")
			case actx.Err() != nil && errors.Is(err, context.Canceled):
				leg.SetStr("outcome", "canceled")
			default:
				leg.SetStr("outcome", "failed")
			}
			c.tracer.End(&leg)
			ch <- attemptResult{res: res, err: err, backend: backend, hedged: hedged}
		}()
	}
	run(primary, false)

	var hedgeC <-chan time.Time
	if c.opts.HedgeAfter > 0 {
		tm := time.NewTimer(c.opts.HedgeAfter)
		defer tm.Stop()
		hedgeC = tm.C
	}
	pending := 1
	var firstErr error
	for pending > 0 {
		select {
		case out := <-ch:
			pending--
			br := c.breakers[out.backend]
			if out.err == nil {
				br.Success()
				if out.hedged {
					c.reg.Counter(mHedgeWins, helpHedgeWins).Inc()
				}
				return out.res, nil
			}
			if actx.Err() == nil || !errors.Is(out.err, context.Canceled) {
				// A real backend failure, not our own cancellation. The
				// black box snapshots it (debounced per reason) so every
				// chaos mode leaves a postmortem naming the cell digest.
				c.fr.Record(flightrec.Event{
					Kind: flightrec.KindFault, Name: "attempt-failed",
					Digest: digest, Detail: out.backend + ": " + out.err.Error(),
				})
				c.fr.Snapshot("attempt-failed", digest, out.backend+": "+out.err.Error())
				if br.Failure() {
					c.reg.Counter(mBreakerOpen, helpBreakerOpen).Inc()
					c.log.LogAttrs(ctx, slog.LevelWarn, "circuit breaker opened",
						slog.String("backend", out.backend),
						slog.String("error", out.err.Error()))
					c.fr.Snapshot("breaker-open", digest, out.backend+": "+out.err.Error())
				}
			}
			var pe *permanentError
			if errors.As(out.err, &pe) {
				return wsrs.Result{}, out.err
			}
			if firstErr == nil {
				firstErr = out.err
			}
		case <-hedgeC:
			hedgeC = nil
			if hb := c.hedgeBackend(digest, primary); hb != "" {
				c.reg.Counter(mHedges, helpHedges).Inc()
				// A straggler is a soft fault: the hedge both routes around
				// it and snapshots the black box (debounced), so a latency
				// incident leaves evidence even when every cell resolves.
				c.fr.Record(flightrec.Event{
					Kind: flightrec.KindFault, Name: "hedge",
					Digest: digest, Detail: primary + " -> " + hb,
				})
				c.fr.Snapshot("hedge-fired", digest, primary+" -> "+hb)
				run(hb, true)
				pending++
			}
		case <-actx.Done():
			return wsrs.Result{}, actx.Err()
		}
	}
	return wsrs.Result{}, firstErr
}

// runOn resolves one cell on one backend through the job API: submit
// a single-cell job, poll to a terminal state, fetch the result. Any
// transport or server hiccup is a retryable error; a 400 or a failed
// job is permanent (the cell, not the backend, is at fault).
func (c *Coordinator) runOn(ctx context.Context, backend string, id serve.CellID) (wsrs.Result, error) {
	client := c.clients[backend]
	st, err := client.Submit(ctx, &serve.JobRequest{
		Cells:   []serve.CellSpec{{Kernel: id.Kernel, Config: id.Config, Policy: id.Policy, Mods: id.Mods, Seed: id.Seed}},
		Warmup:  id.Warmup,
		Measure: id.Measure,
		Seed:    id.Seed,
		Label:   "fleet",
	})
	if err != nil {
		var ae *serve.APIError
		if errors.As(err, &ae) && ae.Status == http.StatusBadRequest {
			// The member rejected the cell itself: relay its envelope
			// (with its trace_id) instead of re-wrapping the message.
			return wsrs.Result{}, &permanentError{&serve.BackendError{
				Member: backend, Status: ae.Status, Env: ae.Envelope,
			}}
		}
		return wsrs.Result{}, fmt.Errorf("submit to %s: %w", backend, err)
	}
	st, err = client.Wait(ctx, st.ID, c.opts.PollInterval)
	if err != nil {
		if ctx.Err() != nil {
			// We are abandoning the job: tell the backend to stop
			// simulating for nobody. Best effort on a fresh context.
			cctx, ccancel := context.WithTimeout(context.Background(), time.Second)
			_ = client.Cancel(cctx, st.ID)
			ccancel()
		}
		return wsrs.Result{}, fmt.Errorf("wait on %s: %w", backend, err)
	}
	switch st.State {
	case serve.StateDone:
	case serve.StateFailed:
		// The simulation itself failed on the member: permanent, and the
		// member's job record (trace ID included) is the diagnosis.
		return wsrs.Result{}, &permanentError{&serve.BackendError{
			Member: backend,
			Env:    &serve.ErrorEnvelope{Msg: st.Error, TraceID: st.TraceID, Member: backend},
		}}
	default:
		return wsrs.Result{}, fmt.Errorf("job on %s ended %s", backend, st.State)
	}
	out, err := client.Results(ctx, st.ID)
	if err != nil {
		return wsrs.Result{}, fmt.Errorf("results from %s: %w", backend, err)
	}
	if len(out) != 1 {
		return wsrs.Result{}, fmt.Errorf("results from %s: %d results for 1 cell", backend, len(out))
	}
	return out[0], nil
}

// runLocal is the degradation path: the exact single-cell RunGrid
// call a member daemon would make, so a fleetless (or fully failed)
// coordinator still produces byte-identical results.
func (c *Coordinator) runLocal(ctx context.Context, id serve.CellID) (wsrs.Result, error) {
	opts := wsrs.SimOpts{
		WarmupInsts:  id.Warmup,
		MeasureInsts: id.Measure,
		Seed:         id.Seed,
		Cancel:       ctx.Done(),
	}
	cell := wsrs.GridCell{
		Kernel: id.Kernel,
		Config: wsrs.ConfigName(id.Config),
		Policy: id.Policy,
		Seed:   id.Seed,
	}
	if id.Mods != "" {
		ms, err := wsrs.ParseMods(id.Mods)
		if err != nil {
			return wsrs.Result{}, err
		}
		cell.Mods = ms
		cell.ModsKey = id.Mods
	}
	out, err := wsrs.RunGrid([]wsrs.GridCell{cell}, opts, 1)
	if err != nil {
		return wsrs.Result{}, err
	}
	return out[0].Result, nil
}

// RunCells scatters the cells across the fleet and gathers the
// results in cell order: the distributed counterpart of wsrs.RunGrid,
// returning — for a healthy or a failing fleet alike — exactly the
// results a local run would produce. The returned error is the first
// failure in cell order (nil when every cell resolved).
func (c *Coordinator) RunCells(ctx context.Context, ids []serve.CellID) ([]wsrs.Result, error) {
	out := make([]wsrs.Result, len(ids))
	errs := make([]error, len(ids))
	sem := make(chan struct{}, c.opts.ScatterWidth)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, _, err := c.RunCell(ctx, ids[i])
			out[i], errs[i] = res, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("cell %d (%s/%s): %w", i, ids[i].Kernel, ids[i].Config, err)
		}
	}
	return out, nil
}

// FetchPeer implements serve.PeerFetcher for member daemons: a local
// cache miss first asks the digest's consistent-hash home whether it
// already holds the result. ok=false on any miss or failure — the
// caller just simulates locally.
func (c *Coordinator) FetchPeer(ctx context.Context, digest string) (wsrs.Result, bool) {
	home, ok := c.ring.Home(digest)
	if !ok {
		return wsrs.Result{}, false
	}
	res, ok := c.clients[home].FetchCache(ctx, digest)
	outcome := "miss"
	if ok {
		outcome = "hit"
	}
	c.reg.Counter(mPeerFetch+telemetry.Labels("outcome", outcome), helpPeerFetch).Inc()
	return res, ok
}

// jitter spreads a backoff delay over [d/2, 3d/2) so synchronized
// failures do not retry in lockstep.
func (c *Coordinator) jitter(d time.Duration) time.Duration {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return d/2 + time.Duration(c.rng.Int63n(int64(d)))
}

// sleepCtx sleeps d unless ctx ends first (false when it did).
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}
