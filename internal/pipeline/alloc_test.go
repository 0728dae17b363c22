package pipeline

import (
	"testing"

	"wsrs/internal/alloc"
	"wsrs/internal/probe"
	"wsrs/internal/trace"
)

// engineReuseAllocBudget is the explicit per-run allocation budget of
// a recycled engine: the result assembly hands the caller two fresh
// slices (ClusterLoads, PerThreadInsts) plus the unbalancing-metric
// snapshot; everything inside the cycle loop must come from reused
// arenas. Driving the unexported engine directly keeps the assertion
// deterministic — the public entry points recycle through a sync.Pool
// whose contents a concurrent GC may legally discard.
const engineReuseAllocBudget = 8

func measureEngineAllocs(t *testing.T, opts RunOpts) float64 {
	t.Helper()
	cfg := wsrs512()
	cfg.Threads = 1
	cfg.Rename.Threads = 1
	ops := synthOps(5, 20000)
	src := trace.NewSliceReader(ops)
	pol := alloc.NewRC(7)
	e := new(engine)
	run := func() {
		src.Reset()
		if err := e.Reset(cfg, pol, []trace.Reader{src}, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := e.run(opts); err != nil {
			t.Fatal(err)
		}
	}
	// Two warmup runs grow every arena to its steady capacity.
	run()
	run()
	return testing.AllocsPerRun(10, run)
}

// TestAllocFreeEngineReuse pins the tentpole claim: once warm, a
// reset engine replays a 20k-µop trace allocating only the per-run
// result payload — a grid of N cells allocates like one.
func TestAllocFreeEngineReuse(t *testing.T) {
	if avg := measureEngineAllocs(t, RunOpts{}); avg > engineReuseAllocBudget {
		t.Errorf("plain cycle loop: %.1f allocs/run, budget %d", avg, engineReuseAllocBudget)
	}
}

// TestAllocFreeMeteredLoop holds the metered cycle loop — a stall
// stack and occupancy probe attached — to the same budget: probe
// accounting must be pure arithmetic on a caller-owned block.
func TestAllocFreeMeteredLoop(t *testing.T) {
	p := probe.New(probe.Options{Stalls: true, Occupancy: true})
	if avg := measureEngineAllocs(t, RunOpts{Probe: p}); avg > engineReuseAllocBudget {
		t.Errorf("metered cycle loop: %.1f allocs/run, budget %d", avg, engineReuseAllocBudget)
	}
}
