package main

import (
	"fmt"
	"time"

	"wsrs"
	"wsrs/internal/alloc"
	"wsrs/internal/bpred"
	"wsrs/internal/isa"
	"wsrs/internal/kernels"
	"wsrs/internal/mem"
	"wsrs/internal/otrace"
	"wsrs/internal/pipeline"
	"wsrs/internal/trace"
	"wsrs/internal/tracecache"
)

// cell is one simulation: a kernel on a configuration under a policy
// seed.
type cell struct {
	kernel string
	config wsrs.ConfigName
	seed   int64
}

func (c cell) String() string { return fmt.Sprintf("%s/%s/seed %d", c.kernel, c.config, c.seed) }

// sampleEvery is the share of wrapped calls that are timed: reading
// the clock around every trace or policy call would cost more than
// the calls themselves.
const sampleEvery = 64

// maxSample bounds a sampled call: a trace or policy call takes
// nanoseconds, so one timed at more than this was interrupted (a GC
// pause, the thread descheduled) and is left out.
const maxSample = 50_000

// callTimer counts the calls into one layer and sums the duration of
// one call in sampleEvery.
type callTimer struct {
	calls, sampled uint64
	ns             int64
}

// sample records one timed call.
func (c *callTimer) sample(ns int64) {
	if ns < maxSample {
		c.ns += ns
		c.sampled++
	}
}

func (c *callTimer) add(o callTimer) {
	c.calls += o.calls
	c.sampled += o.sampled
	c.ns += o.ns
}

// estimateNs scales the sampled time, less the cost of reading the
// clock, to every call.
func (c callTimer) estimateNs(clock float64) float64 {
	if c.sampled == 0 {
		return 0
	}
	per := (float64(c.ns) - float64(c.sampled)*clock) / float64(c.sampled)
	return max(per, 0) * float64(c.calls)
}

// timedReader wraps the trace cursor pipeline.Run pulls µops from.
type timedReader struct {
	r trace.Reader
	t callTimer
}

func (tr *timedReader) Next() (trace.MicroOp, bool) {
	tr.t.calls++
	if tr.t.calls%sampleEvery != 0 {
		return tr.r.Next()
	}
	t0 := otrace.Now()
	m, ok := tr.r.Next()
	tr.t.sample(otrace.Now() - t0)
	return m, ok
}

// timedPolicy wraps the allocation policy wsrs.Build returns.
type timedPolicy struct {
	p alloc.Policy
	t callTimer
}

func (tp *timedPolicy) Name() string { return tp.p.Name() }

func (tp *timedPolicy) Allocate(m *trace.MicroOp, subsets [2]int, occupancy []int) alloc.Decision {
	tp.t.calls++
	if tp.t.calls%sampleEvery != 0 {
		return tp.p.Allocate(m, subsets, occupancy)
	}
	t0 := otrace.Now()
	d := tp.p.Allocate(m, subsets, occupancy)
	tp.t.sample(otrace.Now() - t0)
	return d
}

// clockCost is the median time between two back-to-back clock reads:
// what a sampled interval adds by itself.
func clockCost() float64 {
	xs := make([]float64, 4001)
	for i := range xs {
		a := otrace.Now()
		b := otrace.Now()
		xs[i] = float64(b - a)
	}
	return median(xs)
}

// layerRun simulates cells through pipeline.Run with the trace cursor
// and the allocation policy wrapped, summing what the wrappers saw.
// It keeps its own trace cache, so the traced run never shares a
// cursor source with the untraced one.
type layerRun struct {
	tc     *tracecache.Cache
	clock  float64
	reader callTimer
	policy callTimer
	runNs  int64
}

func newLayerRun() *layerRun {
	return &layerRun{tc: tracecache.New(), clock: clockCost()}
}

// entry returns the memoized trace of a kernel.
func (l *layerRun) entry(kernel string) (*tracecache.Entry, kernels.Kernel, error) {
	k, ok := kernels.ByName(kernel)
	if !ok {
		return nil, k, fmt.Errorf("unknown kernel %q", kernel)
	}
	ent, err := l.tc.Get(k.Name, func() (tracecache.Source, error) { return k.NewSim() })
	return ent, k, err
}

// cellRun is what one wrapped simulation returned and cost.
type cellRun struct {
	res    wsrs.Result
	wallNs int64
	uops   uint64 // µops the pipeline read from the trace
	reader callTimer
	policy callTimer
}

// run simulates c with the given slices; warmup 0 counts every cycle.
func (l *layerRun) run(c cell, warmup, measure uint64) (cellRun, error) {
	ent, _, err := l.entry(c.kernel)
	if err != nil {
		return cellRun{}, err
	}
	cfg, pol, err := wsrs.Build(c.config, c.seed)
	if err != nil {
		return cellRun{}, err
	}
	r := &timedReader{r: ent.Reader()}
	p := &timedPolicy{p: pol}
	t0 := otrace.Now()
	res, err := pipeline.Run(cfg, p, r, pipeline.RunOpts{WarmupInsts: warmup, MeasureInsts: measure})
	wall := otrace.Now() - t0
	if err != nil {
		return cellRun{}, fmt.Errorf("%v: %w", c, err)
	}
	return cellRun{res: res, wallNs: wall, uops: r.t.calls, reader: r.t, policy: p.t}, nil
}

// record adds one timed simulation to the layer totals.
func (l *layerRun) record(cr cellRun) {
	l.reader.add(cr.reader)
	l.policy.add(cr.policy)
	l.runNs += cr.wallNs
}

// selfNs splits the recorded pipeline.Run time into the trace cursor,
// the allocation policy and the pipeline's own remainder.
func (l *layerRun) selfNs() (reader, policy, pipe float64) {
	reader = l.reader.estimateNs(l.clock)
	policy = l.policy.estimateNs(l.clock)
	return reader, policy, float64(l.runNs) - reader - policy
}

// replay holds the standalone measurements of one cell's µop stream.
type replay struct {
	memNs, bpNs, funcNs          float64
	accesses, branches, funcUops uint64
}

func (r *replay) add(o replay) {
	r.memNs += o.memNs
	r.bpNs += o.bpNs
	r.funcNs += o.funcNs
	r.accesses += o.accesses
	r.branches += o.branches
	r.funcUops += o.funcUops
}

// sink keeps the replays' results live, so the compiler cannot drop
// the calls being timed.
var sink int64

// replayCell replays the first n µops of a kernel's trace through the
// memory hierarchy and the branch predictor on their own, timing the
// second of two passes (the first pays page faults and cold tables),
// and steps a fresh functional simulator over the same n µops.
func (l *layerRun) replayCell(kernel string, n uint64) (replay, error) {
	ent, k, err := l.entry(kernel)
	if err != nil {
		return replay{}, err
	}
	type access struct {
		addr  uint64
		store bool
	}
	type branch struct {
		pc    uint64
		taken bool
	}
	var accs []access
	var brs []branch
	cur := ent.Reader()
	for i := uint64(0); i < n; i++ {
		m, ok := cur.Next()
		if !ok {
			return replay{}, fmt.Errorf("%s: trace ended after %d of %d µops", kernel, i, n)
		}
		switch m.Class {
		case isa.ClassLoad:
			accs = append(accs, access{m.Addr, false})
		case isa.ClassStore:
			accs = append(accs, access{m.Addr, true})
		}
		if m.IsCond {
			brs = append(brs, branch{m.PC, m.Taken})
		}
	}

	h := mem.New(mem.DefaultConfig())
	memPass := func() {
		for i, a := range accs {
			if a.store {
				sink += h.AccessStore(a.addr, int64(i))
			} else {
				sink += h.AccessLoad(a.addr, int64(i))
			}
		}
	}
	bp := bpred.NewTwoBcGskew(16)
	bpPass := func() {
		for _, b := range brs {
			if bp.Predict(b.pc) == b.taken {
				sink++
			}
			bp.Update(b.pc, b.taken)
		}
	}
	r := replay{accesses: uint64(len(accs)), branches: uint64(len(brs)), funcUops: n}
	memPass()
	h.Reset()
	t0 := time.Now()
	memPass()
	r.memNs = float64(time.Since(t0))
	bpPass()
	bp.Reset()
	t0 = time.Now()
	bpPass()
	r.bpNs = float64(time.Since(t0))

	sim, err := k.NewSim()
	if err != nil {
		return replay{}, err
	}
	t0 = time.Now()
	for i := uint64(0); i < n; i++ {
		if _, ok := sim.Next(); !ok {
			return replay{}, fmt.Errorf("%s: functional simulation stopped after %d µops: %v", kernel, i, sim.Err())
		}
	}
	r.funcNs = float64(time.Since(t0))
	return r, nil
}

// simCounts sums the modelled design's counts over a set of results.
// They are exact: a change that only speeds up the simulator leaves
// them as they are.
func simCounts(oc *outcome, results []wsrs.Result) {
	var cycles int64
	var insts, uops, cond, mis, l1h, l1m, l2h, l2m, sw, sr, sd uint64
	for _, r := range results {
		cycles += r.Cycles
		insts += r.Insts
		uops += r.Uops
		cond += r.CondBranches
		mis += r.Mispredicts
		l1h += r.Mem.L1Hits
		l1m += r.Mem.L1Misses
		l2h += r.Mem.L2Hits
		l2m += r.Mem.L2Misses
		sw += r.StallWindow
		sr += r.StallRename
		sd += r.StallRedirect
	}
	v := oc.Values
	v["sim.cycles"] = float64(cycles)
	v["sim.uops"] = float64(uops)
	v["sim.ipc"] = ratio(float64(insts), float64(cycles))
	v["sim.mispredict_ratio"] = ratio(float64(mis), float64(cond))
	v["sim.l1_miss_ratio"] = ratio(float64(l1m), float64(l1h+l1m))
	v["sim.l2_miss_ratio"] = ratio(float64(l2m), float64(l2h+l2m))
	v["sim.stall_window_slots"] = float64(sw)
	v["sim.stall_rename_slots"] = float64(sr)
	v["sim.stall_redirect_slots"] = float64(sd)
}

// layerMetrics fills the engine's per-layer metrics from the runs l
// recorded, which were `passes` passes over cells. Counts are per
// pass. A warmup-free run of each cell counts every cycle the
// recorded runs simulated, and its µop stream is then replayed
// standalone.
func layerMetrics(oc *outcome, l *layerRun, cells []cell, passes int, warmup, measure uint64) error {
	var cycles int64
	var rp replay
	for _, c := range cells {
		cr, err := l.run(c, 0, warmup+measure)
		if err != nil {
			return err
		}
		cycles += cr.res.Cycles
		r, err := l.replayCell(c.kernel, cr.uops)
		if err != nil {
			return err
		}
		rp.add(r)
	}
	reader, policy, pipe := l.selfNs()
	n := float64(passes)
	v := oc.Values
	v["tracecache.ns_per_uop"] = ratio(reader, float64(l.reader.calls))
	v["tracecache.uops"] = ratio(float64(l.reader.calls), n)
	v["alloc.ns_per_call"] = ratio(policy, float64(l.policy.calls))
	v["alloc.calls"] = ratio(float64(l.policy.calls), n)
	v["pipeline.self_ns_per_uop"] = ratio(pipe, float64(l.reader.calls))
	v["pipeline.ns_per_cycle"] = ratio(float64(l.runNs), n*float64(cycles))
	v["mem.ns_per_access"] = ratio(rp.memNs, float64(rp.accesses))
	v["mem.accesses"] = float64(rp.accesses)
	v["bpred.ns_per_branch"] = ratio(rp.bpNs, float64(rp.branches))
	v["bpred.branches"] = float64(rp.branches)
	v["funcsim.ns_per_uop"] = ratio(rp.funcNs, float64(rp.funcUops))
	return nil
}
