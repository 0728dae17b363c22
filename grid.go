package wsrs

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"wsrs/internal/check"
	"wsrs/internal/kernels"
	"wsrs/internal/pipeline"
	"wsrs/internal/probe"
	"wsrs/internal/tracecache"
)

// traceCache memoizes the annotated µop stream of each kernel: the
// architectural trace depends only on the kernel (the warmup/measure
// windows consume a prefix of one infinite stream), so the functional
// simulation runs once per kernel and is replayed read-only by every
// (configuration, seed) grid cell, serial or concurrent.
var traceCache = tracecache.New()

// kernelReader returns a fresh read-only cursor over kernel's
// memoized trace, creating the cache entry on first use.
func kernelReader(kernel string) (*tracecache.Cursor, error) {
	k, ok := kernels.ByName(kernel)
	if !ok {
		return nil, fmt.Errorf("wsrs: unknown kernel %q (have %v)", kernel, kernels.Names())
	}
	ent, err := traceCache.Get(k.Name, func() (tracecache.Source, error) {
		return k.NewSim()
	})
	if err != nil {
		return nil, err
	}
	return ent.Reader(), nil
}

// TraceCacheStats re-exports the trace-cache counter snapshot.
type TraceCacheStats = tracecache.Stats

// TraceStats snapshots the shared trace cache: funcsim runs (misses),
// reuses (hits) and memoized µops. cmd/wsrsbench prints it on the
// summary line.
func TraceStats() TraceCacheStats { return traceCache.Stats() }

// ResetTraceCache drops every memoized trace (they can hold tens of
// megabytes per kernel at large measure windows) and zeroes the
// counters.
func ResetTraceCache() { traceCache.Reset() }

// GridCell identifies one point of an experiment grid: a kernel, a
// configuration, and optionally a seed override, a policy replacement
// and machine-option modifiers (the RunKernelWith degrees of
// freedom).
type GridCell struct {
	Kernel string
	Config ConfigName
	// Seed overrides the SimOpts seed when non-zero, so one grid can
	// span seeds (RunKernelSeeds is built this way).
	Seed int64
	// Policy optionally replaces the configuration's own allocation
	// policy (see NewPolicy); "" keeps it.
	Policy string
	// Mods are applied to the machine configuration in order.
	Mods []MachineOption
	// ModsKey optionally names the Mods in canonical string form (see
	// ParseMods). Functions aren't comparable, so checkpoint keys can
	// only distinguish modified cells through this field; the explore
	// subsystem and the serving layer always set it alongside Mods.
	ModsKey string
}

// GridResult pairs a cell with its simulation outcome.
type GridResult struct {
	Cell   GridCell
	Result Result
	Err    error
	// Wall is the host wall-clock time the cell's simulation took
	// (including a possible cold functional-simulation run when the
	// cell is the first user of its kernel's trace).
	Wall time.Duration
	// Resumed marks a cell whose result was restored from the
	// SimOpts.Checkpoint file instead of being simulated.
	Resumed bool
	// Worker is the index of the pool worker that ran the cell
	// (0..parallelism-1); 0 in a serial grid. It keys the host-side
	// Chrome trace tracks.
	Worker int
}

// GridObserver receives RunGrid progress callbacks. Both methods are
// called from worker goroutines — implementations must be safe for
// concurrent use — and must be cheap and read-only: observers see
// results, they never influence scheduling or outcomes. Resumed cells
// (checkpoint hits) report both callbacks too, with Resumed set.
type GridObserver interface {
	// CellStarted fires when worker begins simulating cell i.
	CellStarted(i int, cell GridCell, worker int)
	// CellFinished fires when cell i's outcome is known.
	CellFinished(i int, res GridResult)
}

// CellPanicError wraps a panic that escaped one grid cell's
// simulation: the cell keeps its identity, the goroutine stack is
// preserved, and the remaining cells complete normally.
type CellPanicError struct {
	Kernel string
	Config ConfigName
	Value  any
	Stack  string
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("cell panicked: %v", e.Value)
}

// kernelRef builds a fresh functional simulation of a kernel as the
// co-simulation oracle's reference stream. Deliberately NOT the
// memoized trace cache the pipeline reads from — an independent
// replay also catches corruption of the cache itself.
func kernelRef(kernel string) (check.RefSource, error) {
	k, ok := kernels.ByName(kernel)
	if !ok {
		return nil, fmt.Errorf("wsrs: unknown kernel %q (have %v)", kernel, kernels.Names())
	}
	ref, err := k.NewSim()
	if err != nil {
		return nil, err
	}
	return ref, nil
}

// runCell simulates one grid cell against the shared trace cache. It
// is the common backend of RunKernel, RunKernelWith and RunGrid.
func runCell(c GridCell, opts SimOpts) (Result, error) {
	opts = opts.withDefaults()
	if c.Seed != 0 {
		opts.Seed = c.Seed
	}
	cfg, pol, err := Build(c.Config, opts.Seed)
	if err != nil {
		return Result{}, err
	}
	for _, m := range c.Mods {
		m(&cfg)
	}
	if c.Policy != "" {
		// Sized after the mods so a clusters= override and the RR
		// baseline agree on the rotation modulus.
		pol, err = newPolicySized(c.Policy, opts.Seed, cfg.NumClusters)
		if err != nil {
			return Result{}, err
		}
	}
	src, err := kernelReader(c.Kernel)
	if err != nil {
		return Result{}, err
	}
	prb := opts.Probe
	if prb == nil && opts.Stats {
		// Stats mode gives the cell its own private probe, so grids
		// stay safe at any parallelism.
		prb = probe.New(probe.Options{Stalls: true})
	}
	ro := opts.runOpts()
	ro.Probe = prb
	if opts.checking() {
		ref, err := kernelRef(c.Kernel)
		if err != nil {
			return Result{}, err
		}
		ro.Check = opts.newChecker([]check.RefSource{ref})
	}
	return pipeline.Run(cfg, pol, src, ro)
}

// runCellSafe is runCell behind a recover barrier: a panicking cell
// yields a per-cell *CellPanicError instead of taking down the whole
// grid.
func runCellSafe(c GridCell, opts SimOpts) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CellPanicError{
				Kernel: c.Kernel,
				Config: c.Config,
				Value:  r,
				Stack:  string(debug.Stack()),
			}
		}
	}()
	return runCell(c, opts)
}

// RunGrid fans the cells out across a worker pool of the given
// parallelism (<= 0 selects GOMAXPROCS; 1 runs strictly serially on
// the calling goroutine). Results are returned in cell order
// regardless of completion order, and every simulation replays the
// read-only memoized traces, so a parallel grid is deterministic:
// byte-identical to the serial run for a fixed seed.
//
// The returned error is the first failure in cell order (nil if all
// cells succeeded), joined with the checkpoint's first write error if
// one occurred; the full result slice, including every per-cell Err,
// is returned either way so callers can render partial grids.
func RunGrid(cells []GridCell, opts SimOpts, parallelism int) ([]GridResult, error) {
	if opts.Probe != nil {
		return nil, fmt.Errorf("wsrs: a probe cannot be shared across grid cells; set SimOpts.Stats instead")
	}
	if opts.Inject != nil {
		return nil, fmt.Errorf("wsrs: a fault cannot be shared across grid cells; inject into a single run instead")
	}
	var ckpt *checkpoint
	if opts.Checkpoint != "" {
		var err error
		ckpt, err = openCheckpoint(opts.Checkpoint)
		if err != nil {
			return nil, err
		}
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(cells) {
		parallelism = len(cells)
	}
	out := make([]GridResult, len(cells))
	obs := opts.Observer
	work := func(i, worker int) {
		if obs != nil {
			obs.CellStarted(i, cells[i], worker)
		}
		key := ""
		if ckpt != nil {
			key = cellKey(i, cells[i], opts)
			if res, ok := ckpt.lookup(key); ok {
				out[i] = GridResult{Cell: cells[i], Result: res, Resumed: true, Worker: worker}
				if obs != nil {
					obs.CellFinished(i, out[i])
				}
				return
			}
		}
		start := time.Now()
		res, err := runCellSafe(cells[i], opts)
		out[i] = GridResult{Cell: cells[i], Result: res, Err: err, Wall: time.Since(start), Worker: worker}
		if ckpt != nil && err == nil {
			ckpt.record(key, res)
		}
		if obs != nil {
			obs.CellFinished(i, out[i])
		}
	}
	if parallelism <= 1 {
		for i := range cells {
			work(i, 0)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < parallelism; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for i := range idx {
					work(i, worker)
				}
			}(w)
		}
		for i := range cells {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	err := gridError(out)
	if ckpt != nil {
		if cerr := ckpt.close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("wsrs: checkpoint: %w", cerr))
		}
	}
	return out, err
}

// gridError summarizes a grid's failures: nil when every cell
// succeeded, otherwise the first failure in cell order, prefixed with
// the failure count when more than one cell failed.
func gridError(out []GridResult) error {
	nfail := 0
	first := -1
	for i := range out {
		if out[i].Err != nil {
			nfail++
			if first < 0 {
				first = i
			}
		}
	}
	if nfail == 0 {
		return nil
	}
	err := fmt.Errorf("%s/%s: %w", out[first].Cell.Kernel, out[first].Cell.Config, out[first].Err)
	if nfail > 1 {
		err = fmt.Errorf("%d of %d cells failed; first: %w", nfail, len(out), err)
	}
	return err
}
