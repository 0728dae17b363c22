package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wsrs"
	"wsrs/internal/otrace"
	"wsrs/internal/serve"
)

// clients is the number of closed-loop load goroutines, each with at
// most one connection open: wsrsd's callers submit a job and wait for
// it, and the host has two CPUs, which the daemon's workers share with
// the load.
const clients = 2

// spanEvery selects the 1-in-N jobs of a traced serve run that get
// spans; the rest only feed the counters.
const spanEvery = 64

// phaseSamples sizes the daemon's phase-sample log in the traced run
// so it holds every sample of both timed phases.
const phaseSamples = 1 << 20

// localShare is the timed phase's multiple of the local passes over
// the checked cells.
const localShare = 5

// The policy seeds of serve cells come from disjoint domains, so no
// timed cell repeats a set-up cell or another timed cell.
const (
	domainWarm = 1
	domainPool = 2
	domainCold = 3
)

// cellSeed derives the seed of cell idx (below 2^28) of a domain from
// the run's seed.
func cellSeed(runSeed int64, domain, idx int) int64 {
	return int64(uint64(runSeed)&0xfffff)<<32 | int64(domain)<<28 | int64(idx)
}

// mix is splitmix64: it turns a run seed and a job index into an
// evenly spread pool pick.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// daemon is one in-process wsrsd: the job server with its default
// worker pool, its loopback listener, and the client the load uses.
type daemon struct {
	srv *serve.Server
	hs  *http.Server
	tr  *http.Transport
	cl  *serve.Client
}

func startDaemon(samples int) (*daemon, error) {
	srv, err := serve.New(serve.Options{PhaseSamples: samples})
	if err != nil {
		return nil, err
	}
	addr, hs, err := serve.Listen("127.0.0.1:0", srv.Handler())
	if err != nil {
		_ = srv.Drain(context.Background()) // the listen error is the one to report
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	d := &daemon{srv: srv, hs: hs, tr: tr,
		cl: &serve.Client{Base: "http://" + addr, HTTP: &http.Client{Transport: tr}}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.cl.WaitReady(ctx, time.Millisecond); err != nil {
		_ = d.stop() // the readiness error is the one to report
		return nil, err
	}
	return d, nil
}

// stop drains the daemon, closes its listener and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	d.tr.CloseIdleConnections()
	return err
}

// jobTimes are one job's client-side timestamps on the otrace clock.
type jobTimes struct {
	start, submitted, finished, fetched int64
}

// doJob submits one job, follows its event stream to the terminal
// event and fetches the raw results — the path every wsrsd caller
// takes.
func (d *daemon) doJob(ctx context.Context, req *serve.JobRequest) ([]byte, *serve.JobStatus, jobTimes, error) {
	var t jobTimes
	t.start = otrace.Now()
	st, err := d.cl.Submit(ctx, req)
	t.submitted = otrace.Now()
	if err != nil {
		return nil, nil, t, fmt.Errorf("submit: %w", err)
	}
	var final *serve.JobStatus
	err = d.cl.Events(ctx, st.ID, func(ev serve.Event) bool {
		if ev.Type == "job" {
			final = ev.Job
		}
		return true // read the stream to its end so the connection is reused
	})
	t.finished = otrace.Now()
	switch {
	case err != nil:
		return nil, nil, t, fmt.Errorf("events: %w", err)
	case final == nil:
		return nil, nil, t, errors.New("event stream ended without a terminal event")
	case final.State != serve.StateDone:
		return nil, nil, t, fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	body, err := d.cl.RawResults(ctx, st.ID)
	t.fetched = otrace.Now()
	if err != nil {
		return nil, nil, t, fmt.Errorf("results: %w", err)
	}
	return body, final, t, nil
}

// serveRun is one run of a serve workload.
type serveRun struct {
	w    workload
	o    runOpts
	oc   *outcome
	d    *daemon
	next atomic.Int64 // next job index; no index repeats within a run

	// serve-hot: the pool and the daemon's encoding of each pool
	// cell's result.
	pool    []serve.CellSpec
	poolRaw []json.RawMessage

	// serve-cold: the bodies of the jobs checked after the timed phase.
	mu   sync.Mutex
	kept map[int][]byte
}

func (s *serveRun) request(cells []serve.CellSpec) *serve.JobRequest {
	return &serve.JobRequest{Cells: cells, Warmup: s.w.warmup, Measure: s.w.measure}
}

// poolPick is the pool index of cell j of job i.
func (s *serveRun) poolPick(i, j int) int {
	return int(mix(uint64(s.o.seed)<<32^uint64(i*s.w.cellsPerJob+j)) % uint64(len(s.pool)))
}

// jobCells returns the cells of job i: serve-hot draws them from the
// pool; serve-cold walks the kernels, each job one kernel on every
// configuration, with a fresh seed per cell.
func (s *serveRun) jobCells(i int) []serve.CellSpec {
	cells := make([]serve.CellSpec, s.w.cellsPerJob)
	for j := range cells {
		if s.w.pool > 0 {
			cells[j] = s.pool[s.poolPick(i, j)]
			continue
		}
		c := i*s.w.cellsPerJob + j
		cells[j] = serve.CellSpec{
			Kernel: s.w.kernels[c/len(configs)%len(s.w.kernels)],
			Config: string(configs[c%len(configs)]),
			Seed:   cellSeed(s.o.seed, domainCold, c),
		}
	}
	return cells
}

// setupOnce starts a fresh daemon over an empty trace cache, runs one
// warm cell per kernel through it and, for serve-hot, fills its cache
// with the pool.
func (s *serveRun) setupOnce(samples int) error {
	if s.d != nil {
		if err := s.d.stop(); err != nil {
			return err
		}
		s.d = nil
	}
	wsrs.ResetTraceCache()
	d, err := startDaemon(samples)
	if err != nil {
		return err
	}
	s.d = d
	ctx := context.Background()
	warm := make([]serve.CellSpec, len(s.w.kernels))
	for i, k := range s.w.kernels {
		warm[i] = serve.CellSpec{Kernel: k, Config: string(configs[i%len(configs)]),
			Seed: cellSeed(s.o.seed, domainWarm, i)}
	}
	if _, _, _, err := d.doJob(ctx, s.request(warm)); err != nil {
		return fmt.Errorf("warm job: %w", err)
	}
	if s.w.pool == 0 {
		return nil
	}
	body, _, _, err := d.doJob(ctx, s.request(s.pool))
	if err != nil {
		return fmt.Errorf("pool job: %w", err)
	}
	if err := json.Unmarshal(body, &s.poolRaw); err != nil {
		return fmt.Errorf("pool results: %w", err)
	}
	if len(s.poolRaw) != len(s.pool) {
		return fmt.Errorf("pool job returned %d results for %d cells", len(s.poolRaw), len(s.pool))
	}
	return nil
}

// matchesPool reports whether a serve-hot job's body is the JSON
// array of its pool cells' results, byte for byte.
func (s *serveRun) matchesPool(body []byte, i int) bool {
	sep := byte('[')
	for j := 0; j < s.w.cellsPerJob; j++ {
		raw := s.poolRaw[s.poolPick(i, j)]
		if len(body) == 0 || body[0] != sep || !bytes.HasPrefix(body[1:], raw) {
			return false
		}
		body = body[1+len(raw):]
		sep = ','
	}
	return string(body) == "]\n"
}

// servePhase is what one timed phase of a serve run measured.
type servePhase struct {
	start int64 // otrace clock
	wall  time.Duration
	jobs  []jobRecord
	// Per finished job, in ms: its submit, wait and results parts,
	// and the part outside the daemon's own job lifecycle.
	submitMs, waitMs, resultsMs, outsideMs []float64
	// counters are the deltas of the daemon's counters.
	counters map[string]float64
	phases   []serve.PhaseSample
}

// jobRecord is one job of a timed phase.
type jobRecord struct {
	end   int64   // completion on the otrace clock
	latMs float64 // submit to the end of the results; +Inf if the job failed
	cells int     // cells delivered; 0 if the job failed
}

func (p *servePhase) add(x *servePhase) {
	p.jobs = append(p.jobs, x.jobs...)
	p.submitMs = append(p.submitMs, x.submitMs...)
	p.waitMs = append(p.waitMs, x.waitMs...)
	p.resultsMs = append(p.resultsMs, x.resultsMs...)
	p.outsideMs = append(p.outsideMs, x.outsideMs...)
}

// finished counts the jobs that delivered results.
func (p *servePhase) finished() int {
	n := 0
	for _, j := range p.jobs {
		if j.cells > 0 {
			n++
		}
	}
	return n
}

// window is the slice of a timed phase over which the service's speed
// is judged.
const window = 500 * time.Millisecond

// serveRates are a phase's end-to-end numbers and the share of the
// phase they rest on.
type serveRates struct {
	cellsPerS, p50, p99 float64
	windows, fast, jobs int
}

// rates computes the service's end-to-end numbers over the phase's
// fast windows. The host's CPUs run other tenants' work too, which
// slows the daemon by up to half for seconds to minutes at a time. So
// the phase is cut into half-second windows by job completion, and a
// window is fast when it completed at least 90% of the cells of the
// 90th-percentile window. Throughput is the fast windows' rate and
// the latency percentiles are over the jobs they completed. A phase
// shorter than two windows is one window.
func (p *servePhase) rates() serveRates {
	n := int(p.wall / window)
	width := window
	if n < 2 {
		n, width = 1, p.wall
	}
	cells := make([]float64, n)
	lat := make([][]float64, n)
	for _, j := range p.jobs {
		k := int(time.Duration(j.end-p.start) / width)
		if k >= n {
			continue // the last, partial window
		}
		cells[k] += float64(j.cells)
		lat[k] = append(lat[k], j.latMs)
	}
	fastest := percentile(slices.Clone(cells), 90)
	r := serveRates{windows: n}
	var fastCells float64
	var fastLat []float64
	for k := range cells {
		if cells[k] >= 0.9*fastest {
			r.fast++
			fastCells += cells[k]
			fastLat = append(fastLat, lat[k]...)
		}
	}
	secs := float64(r.fast) * width.Seconds()
	r.cellsPerS = ratio(fastCells, secs)
	r.p50, r.p99, r.jobs = percentile(fastLat, 50), percentile(fastLat, 99), len(fastLat)
	return r
}

// The daemon counters a phase reads before and after.
const (
	ctrSims      = "wsrsd_sims_total"
	ctrHits      = "wsrsd_cache_hits_total"
	ctrCoalesced = "wsrsd_coalesced_total"
	ctrRejected  = `wsrsd_jobs_total{outcome="rejected"}`
)

// phase runs the closed loop until dur has passed and at least
// minJobs jobs ran. With a recorder it records spans for 1 in
// spanEvery jobs and reads the daemon's phase samples.
func (s *serveRun) phase(ctx context.Context, dur time.Duration, rec *otrace.Recorder, parent otrace.Ctx) (*servePhase, error) {
	before, err := s.d.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	var cursor uint64
	if rec != nil {
		page, err := s.d.cl.Phases(ctx, math.MaxUint64)
		if err != nil {
			return nil, err
		}
		cursor = page.Next
	}
	first := int(s.next.Load())
	parts := make([]servePhase, clients)
	ocs := make([]*outcome, clients)
	// A run that cannot reach minJobs stops here and fails, inside the
	// benchmark's time limit.
	hardStop := 2*dur + 10*time.Second
	start := time.Now()
	startNs := otrace.Now()
	var wg sync.WaitGroup
	for c := range parts {
		ocs[c] = newOutcome()
		wg.Add(1)
		go func(p *servePhase, oc *outcome) {
			defer wg.Done()
			for {
				i := int(s.next.Add(1) - 1)
				since := time.Since(start)
				if (i-first >= s.w.minJobs && since >= dur) || since >= hardStop {
					return
				}
				var sample *otrace.Recorder
				if (i-first)%spanEvery == 0 {
					sample = rec
				}
				s.job(ctx, i, p, oc, sample, parent)
			}
		}(&parts[c], ocs[c])
	}
	wg.Wait()
	ph := &servePhase{start: startNs, wall: time.Since(start)}
	for c := range parts {
		ph.add(&parts[c])
		s.oc.merge(ocs[c])
	}
	if n := ph.finished(); n < s.w.minJobs {
		s.oc.fail("only %d of at least %d jobs finished within %v", n, s.w.minJobs, hardStop)
	}

	after, err := s.d.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	ph.counters = map[string]float64{}
	for _, k := range []string{ctrSims, ctrHits, ctrCoalesced, ctrRejected} {
		ph.counters[k] = after[k] - before[k]
	}
	if s.w.pool > 0 && ph.counters[ctrSims] != 0 {
		s.oc.fail("serve-hot ran %v simulations; every cell must come from the cache", ph.counters[ctrSims])
	}
	if s.w.pool == 0 && ph.counters[ctrHits] != 0 {
		s.oc.fail("serve-cold hit the cache %v times; every cell must be new", ph.counters[ctrHits])
	}
	if rec != nil {
		page, err := s.d.cl.Phases(ctx, cursor)
		if err != nil {
			return nil, err
		}
		if page.Dropped > 0 {
			s.oc.fail("the daemon's phase log dropped %d samples", page.Dropped)
		}
		ph.phases = page.Samples
	}
	return ph, nil
}

// job runs job i and checks its body: serve-hot against the pool's
// encoding, serve-cold by decoding it (1 in checkEvery of the first
// minJobs bodies are kept for the comparison after the timed phase). A job given a recorder
// records its spans.
func (s *serveRun) job(ctx context.Context, i int, p *servePhase, oc *outcome, rec *otrace.Recorder, parent otrace.Ctx) {
	cells := s.jobCells(i)
	body, final, t, err := s.d.doJob(ctx, s.request(cells))
	oc.Attempted++
	if err == nil {
		err = s.checkBody(i, cells, body)
	}
	if err != nil {
		oc.fail("job %d: %v", i, err)
		p.jobs = append(p.jobs, jobRecord{end: otrace.Now(), latMs: math.Inf(1)})
		return
	}
	lat := ms(t.fetched - t.start)
	p.jobs = append(p.jobs, jobRecord{end: t.fetched, latMs: lat, cells: len(cells)})
	p.submitMs = append(p.submitMs, ms(t.submitted-t.start))
	p.waitMs = append(p.waitMs, ms(t.finished-t.submitted))
	p.resultsMs = append(p.resultsMs, ms(t.fetched-t.finished))
	if final.Finished != nil {
		p.outsideMs = append(p.outsideMs, lat-final.Finished.Sub(final.Created).Seconds()*1e3)
	}
	if rec != nil {
		js := rec.Make("job", parent, t.start, t.fetched)
		js.SetInt("job", int64(i))
		for _, part := range []struct {
			name       string
			start, end int64
		}{{"submit", t.start, t.submitted}, {"wait", t.submitted, t.finished}, {"results", t.finished, t.fetched}} {
			sp := rec.Make(part.name, js.Ctx(), part.start, part.end)
			rec.Append(&sp)
		}
		rec.Append(&js)
	}
}

// checkBody checks one job's results.
func (s *serveRun) checkBody(i int, cells []serve.CellSpec, body []byte) error {
	if s.w.pool > 0 {
		if !s.matchesPool(body, i) {
			return errors.New("results differ from the daemon's own encoding of the pool cells")
		}
		return nil
	}
	var rs []json.RawMessage
	if err := json.Unmarshal(body, &rs); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if len(rs) != len(cells) {
		return fmt.Errorf("%d results for %d cells", len(rs), len(cells))
	}
	if i < s.w.minJobs && i%s.w.checkEvery == 0 {
		s.mu.Lock()
		s.kept[i] = body
		s.mu.Unlock()
	}
	return nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// checkResults compares what the daemon served with a local
// wsrs.RunGrid of the same cells, encoded the way the daemon encodes
// them: serve-hot's pool (every timed body was matched against the
// pool's encoding), or serve-cold's kept jobs. The checked cells stand
// for the workload: the local runs are timed passes like an engine
// workload's, which give the run's uops_per_s, and the traced run
// measures the engine's layers on them. It returns the cells with
// their local results.
func (s *serveRun) checkResults() ([]cell, []wsrs.Result, error) {
	var specs []serve.CellSpec
	var jobs []int
	if s.w.pool > 0 {
		specs = s.pool
	} else {
		for i := range s.kept {
			jobs = append(jobs, i)
		}
		slices.Sort(jobs)
		for _, i := range jobs {
			specs = append(specs, s.jobCells(i)...)
		}
	}
	grid := make([]wsrs.GridCell, len(specs))
	refs := make([]cell, len(specs))
	for i, c := range specs {
		grid[i] = wsrs.GridCell{Kernel: c.Kernel, Config: wsrs.ConfigName(c.Config), Seed: c.Seed}
		refs[i] = cell{kernel: c.Kernel, config: wsrs.ConfigName(c.Config), seed: c.Seed}
	}
	opts := wsrs.SimOpts{WarmupInsts: s.w.warmup, MeasureInsts: s.w.measure}
	exp := &expectations{want: make([]*wsrs.Result, len(refs))}
	ps := timedPasses(refs, s.o.seconds/localShare, 3, s.oc, exp, "local", func(i int) (wsrs.Result, time.Duration, error) {
		out, err := wsrs.RunGrid(grid[i:i+1], opts, 1)
		if len(out) != 1 {
			return wsrs.Result{}, 0, err
		}
		return out[0].Result, out[0].Wall, out[0].Err
	})
	s.oc.Values["uops_per_s"], _, _ = ps.rates()
	results := exp.results()
	if len(results) != len(refs) {
		return nil, nil, fmt.Errorf("%d of %d checked cells failed to simulate locally", len(refs)-len(results), len(refs))
	}
	// body checks one daemon body against the local results of cells
	// [lo, hi).
	body := func(name string, got []byte, lo, hi int) {
		s.oc.Attempted++
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(results[lo:hi]); err != nil {
			s.oc.fail("%s: encode: %v", name, err)
			return
		}
		if !bytes.Equal(got, enc.Bytes()) {
			s.oc.fail("%s: served results differ from the local RunGrid encoding", name)
		}
	}
	if s.w.pool > 0 {
		for p, raw := range s.poolRaw {
			// A one-cell job's body: the cell's element in a JSON array.
			got := append(append([]byte{'['}, raw...), ']', '\n')
			body(fmt.Sprintf("pool cell %d", p), got, p, p+1)
		}
	}
	for k, i := range jobs {
		n := s.w.cellsPerJob
		body(fmt.Sprintf("job %d", i), s.kept[i], k*n, (k+1)*n)
	}
	return refs, results, nil
}

func runServe(w workload, o runOpts) (*outcome, error) {
	oc := newOutcome()
	s := &serveRun{w: w, o: o, oc: oc, kept: map[int][]byte{}}
	for p := 0; p < w.pool; p++ {
		s.pool = append(s.pool, serve.CellSpec{
			Kernel: w.kernels[p%len(w.kernels)],
			Config: string(configs[p/len(w.kernels)%len(configs)]),
			Seed:   cellSeed(o.seed, domainPool, p),
		})
	}
	samples := 0
	if o.trace {
		samples = phaseSamples
	}
	setup, err := repeatSetup(o.start, func() error { return s.setupOnce(samples) })
	if err != nil {
		if s.d != nil {
			_ = s.d.stop() // the set-up error is the one to report
		}
		return nil, err
	}
	err = s.measure(samples)
	if serr := s.d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	oc.Values["setup_s"] = setup
	return oc, nil
}

// measure runs the timed phase, the traced phase when asked, and the
// checks, filling the run's metrics.
func (s *serveRun) measure(samples int) error {
	ctx := context.Background()
	v := s.oc.Values
	before := readMemSnap()
	ph, err := s.phase(ctx, s.o.seconds, nil, otrace.Ctx{})
	if err != nil {
		return err
	}
	runtimeMetrics(s.oc, before, readMemSnap(), len(ph.jobs))
	v["peak_rss_mb"] = peakRSSMB()
	r := ph.rates()
	v["cells_per_s"], v["job_p50_ms"], v["job_p99_ms"] = r.cellsPerS, r.p50, r.p99
	fmt.Fprintf(s.o.log, "%s: %d of %d jobs, in %d of %d half-second windows, were timed at the host's fast speed\n",
		s.w.name, r.jobs, len(ph.jobs), r.fast, r.windows)

	var rec *otrace.Recorder
	var root otrace.Span
	var tp *servePhase
	if s.o.trace {
		rec = otrace.NewRecorder(spanCapacity)
		root = rec.Begin("run", otrace.Ctx{})
		root.SetStr("workload", s.w.name)
		tp, err = s.phase(ctx, s.o.seconds, rec, root.Ctx())
		rec.End(&root)
		if err != nil {
			return err
		}
	}
	refs, results, err := s.checkResults()
	if err != nil {
		return err
	}
	if !s.o.trace {
		return nil
	}
	s.servedLayers(tp, v["cells_per_s"])
	simCounts(s.oc, results)
	if err := s.engineLayers(refs, results); err != nil {
		return err
	}
	return writeSpans(s.oc, rec, root.Trace, s.w.name, s.o, "run,job,submit,wait,results")
}

// servedLayers fills the serve.* and bench.* metrics from the traced
// phase and prints its ledger, in client time: each client's share of
// the phase is spent submitting, waiting or fetching results, and the
// rest is the load loop's own.
func (s *serveRun) servedLayers(tp *servePhase, untracedCells float64) {
	v := s.oc.Values
	v["serve.submit_ms_p50"] = percentile(tp.submitMs, 50)
	v["serve.submit_ms_p99"] = percentile(tp.submitMs, 99)
	v["serve.wait_ms_p50"] = percentile(tp.waitMs, 50)
	v["serve.results_ms_p50"] = percentile(tp.resultsMs, 50)
	v["serve.outside_ms_p50"] = percentile(tp.outsideMs, 50)
	byPhase := map[string][]float64{}
	simUs := 0.0
	for _, ps := range tp.phases {
		byPhase[ps.Phase] = append(byPhase[ps.Phase], float64(ps.Us)/1e3)
		if ps.Phase == serve.PhaseSimulate {
			simUs += float64(ps.Us)
		}
	}
	v["serve.queue_ms_p50"] = percentile(byPhase[serve.PhaseQueue], 50)
	v["serve.queue_ms_p99"] = percentile(byPhase[serve.PhaseQueue], 99)
	v["serve.simulate_ms_p50"] = percentile(byPhase[serve.PhaseSimulate], 50)
	v["serve.cache_ms_p50"] = percentile(byPhase[serve.PhaseCache], 50)
	// serve.New's default pool has GOMAXPROCS workers.
	v["serve.worker_busy_ratio"] = ratio(simUs*1e3, float64(runtime.GOMAXPROCS(0))*float64(tp.wall))
	c := tp.counters
	v["serve.sims"] = c[ctrSims]
	v["serve.cache_hits"] = c[ctrHits]
	v["serve.coalesced"] = c[ctrCoalesced]
	v["serve.rejected"] = c[ctrRejected]
	v["serve.cache_hit_ratio"] = ratio(c[ctrHits], c[ctrHits]+c[ctrSims]+c[ctrCoalesced])
	v["bench.trace_overhead_ratio"] = ratio(tp.rates().cellsPerS, untracedCells)
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x * 1e6
		}
		return t
	}
	v["bench.unattributed_ratio"] = printLedger(s.o.log,
		fmt.Sprintf("%s (traced phase, %d clients x %.3f s)", s.w.name, clients, tp.wall.Seconds()),
		clients*float64(tp.wall), []ledgerRow{
			{"submit", sum(tp.submitMs)},
			{"wait", sum(tp.waitMs)},
			{"results", sum(tp.resultsMs)},
		})
}

// engineLayers measures the engine's layers on the cells that stand
// for the workload, run locally: one pass to fill the trace cache and
// one recorded pass, whose results must equal the checked ones.
func (s *serveRun) engineLayers(refs []cell, want []wsrs.Result) error {
	l := newLayerRun()
	exp := &expectations{want: make([]*wsrs.Result, len(refs))}
	for i := range want {
		exp.want[i] = &want[i]
	}
	for pass := 0; pass < 2; pass++ {
		for i, c := range refs {
			cr, err := l.run(c, s.w.warmup, s.w.measure)
			if err != nil {
				return err
			}
			if pass == 1 {
				l.record(cr)
				s.oc.Attempted++
				exp.check(s.oc, i, c, cr.res, "traced")
			}
		}
	}
	return layerMetrics(s.oc, l, refs, 1, s.w.warmup, s.w.measure)
}
