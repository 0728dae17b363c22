// Package wsrs is a from-scratch reproduction of "Register Write
// Specialization Register Read Specialization: A Path to
// Complexity-Effective Wide-Issue Superscalar Processors" (Seznec,
// Toullec, Rochecouste — MICRO-35, 2002).
//
// The package exposes the paper's machinery through a small facade:
//
//   - Machine configurations: the six design points of Figure 4
//     (conventional RR-256, write-specialized WSRR-384/512 and
//     WSRS-RC/RM with 384/512 physical registers), built on a
//     cycle-level 8-way 4-cluster out-of-order timing model.
//   - Workloads: twelve SPEC CPU2000 proxy kernels (internal/kernels)
//     plus custom programs assembled from source (RunProgram).
//   - Complexity models: Table1 regenerates the paper's register-file
//     area / energy / access-time / bypass comparison.
//   - Experiments: Figure4 (IPC) and Figure5 (workload unbalancing
//     degree), plus the ablations described in DESIGN.md.
//
// Quick start:
//
//	res, err := wsrs.RunKernel(wsrs.ConfWSRSRC512, "gzip", wsrs.SimOpts{})
//	fmt.Printf("IPC = %.2f\n", res.IPC)
package wsrs

import (
	"fmt"
	"io"
	"strings"
	"time"

	"wsrs/internal/alloc"
	"wsrs/internal/asm"
	"wsrs/internal/check"
	"wsrs/internal/check/inject"
	"wsrs/internal/cluster"
	"wsrs/internal/funcsim"
	"wsrs/internal/isa"
	"wsrs/internal/kernels"
	"wsrs/internal/mem"
	"wsrs/internal/pipeline"
	"wsrs/internal/probe"
	"wsrs/internal/rename"
	"wsrs/internal/telemetry"
	"wsrs/internal/trace"
)

// ConfigName identifies one of the paper's simulated configurations
// (§5.2.1 and Figure 4's legend).
type ConfigName string

// The six Figure 4 configurations.
const (
	// ConfRR256 is the conventional 4-cluster processor: round-robin
	// allocation, 256 physical registers, 17-cycle minimum
	// misprediction penalty.
	ConfRR256 ConfigName = "RR 256"
	// ConfWSRR384 / ConfWSRR512 use register Write Specialization
	// alone with round-robin allocation (second renaming
	// implementation, 16-cycle penalty: the register read pipeline is
	// one cycle shorter).
	ConfWSRR384 ConfigName = "WSRR 384"
	ConfWSRR512 ConfigName = "WSRR 512"
	// ConfWSRSRC384 / ConfWSRSRC512 are 4-cluster WSRS machines with
	// the "random commutative cluster" policy and the second renaming
	// implementation (18-cycle penalty).
	ConfWSRSRC384 ConfigName = "WSRS RC S 384"
	ConfWSRSRC512 ConfigName = "WSRS RC S 512"
	// ConfWSRSRM512 uses the "random monadic" policy.
	ConfWSRSRM512 ConfigName = "WSRS RM S 512"

	// ConfWSPools512 is the second write-specialization organization
	// of paper Figure 2b: heterogeneous pools of identical functional
	// units (load/store, simple ALU, complex, branch), each fed by
	// dedicated reservation stations and writing its own register
	// subset. Pool allocation is class-static ("predecoded bits in
	// the instruction cache", §2.4), so renaming needs no extra
	// stages (16-cycle penalty). Not part of Figure 4; provided as an
	// extension experiment.
	ConfWSPools512 ConfigName = "WS pools 512"
)

// Figure4Configs returns the six configuration names in the paper's
// legend order.
func Figure4Configs() []ConfigName {
	return []ConfigName{
		ConfRR256, ConfWSRR384, ConfWSRR512,
		ConfWSRSRC384, ConfWSRSRC512, ConfWSRSRM512,
	}
}

// AllConfigs returns every buildable configuration name: the Figure 4
// set plus the pools extension.
func AllConfigs() []ConfigName {
	return append(Figure4Configs(), ConfWSPools512)
}

// PolicyNames returns the allocation-policy names NewPolicy accepts.
func PolicyNames() []string {
	return []string{"RR", "RM", "RC", "RC-bal", "RC-dep", "RR-aff"}
}

// ValidateConfigName resolves a configuration name, returning an error
// that lists the valid choices on a miss. The command-line tools call
// it up front so a typo fails before any simulation runs.
func ValidateConfigName(name string) (ConfigName, error) {
	for _, c := range AllConfigs() {
		if string(c) == name {
			return c, nil
		}
	}
	valid := make([]string, 0, len(AllConfigs()))
	for _, c := range AllConfigs() {
		valid = append(valid, string(c))
	}
	return "", fmt.Errorf("wsrs: unknown configuration %q (valid: %s)",
		name, strings.Join(valid, ", "))
}

// ValidateKernelNames checks a list of benchmark names against the
// registered kernels, so a typo fails up front — before any grid
// starts — instead of mid-run from inside a worker. The grid drivers
// (RunFigure4, RunFigure5, RunEnergy, RunKernelSeeds) and the serving
// layer all call it before building cells.
func ValidateKernelNames(names []string) error {
	valid := map[string]bool{}
	for _, k := range kernels.Names() {
		valid[k] = true
	}
	for _, name := range names {
		if !valid[name] {
			return fmt.Errorf("wsrs: unknown kernel %q (valid: %s)",
				name, strings.Join(kernels.Names(), ", "))
		}
	}
	return nil
}

// ValidatePolicyName checks an allocation-policy name ("" means "keep
// the configuration's own policy" and is always valid).
func ValidatePolicyName(name string) error {
	if name == "" {
		return nil
	}
	for _, p := range PolicyNames() {
		if p == name {
			return nil
		}
	}
	return fmt.Errorf("wsrs: unknown policy %q (valid: %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// DefaultLatencies re-exports the paper's Table 2 latencies.
func DefaultLatencies() isa.Latencies { return isa.DefaultLatencies() }

// DefaultMemory re-exports the paper's Table 3 memory hierarchy.
func DefaultMemory() mem.Config { return mem.DefaultConfig() }

// baseConfig is the machine frame shared by every configuration:
// 8-way 4-cluster, 224-entry window, Table 2 latencies, Table 3
// memory, 512-Kbit 2Bc-gskew predictor. The §2.3 move workaround is
// always on: a move fires only when a register subset is truly
// deadlocked, so machines whose subsets can back the map table never
// see one, and smaller ones (fewer registers per subset than logical
// registers, or several SMT contexts) commit instead of stopping.
func baseConfig(name string) pipeline.Config {
	return pipeline.Config{
		Name:             name,
		FetchWidth:       8,
		CommitWidth:      8,
		NumClusters:      4,
		ROBSize:          224,
		Cluster:          cluster.DefaultConfig(),
		XClusterDelay:    1,
		TrapPenalty:      17,
		Lat:              isa.DefaultLatencies(),
		Mem:              mem.DefaultConfig(),
		PredictorLogSize: 16,
		DeadlockMoves:    true,
	}
}

// Build returns the pipeline configuration and a fresh allocation
// policy for a named configuration. Policies embedding randomness are
// seeded with seed for reproducibility.
func Build(name ConfigName, seed int64) (pipeline.Config, alloc.Policy, error) {
	cfg := baseConfig(string(name))
	switch name {
	case ConfRR256:
		cfg.Rename = rename.Config{NumSubsets: 1, IntRegs: 256, FPRegs: 256, Impl: rename.ImplExactCount}
		cfg.MispredictPenalty = 17
		return cfg, alloc.NewRoundRobin(4), nil
	case ConfWSRR384, ConfWSRR512:
		regs := 384
		if name == ConfWSRR512 {
			regs = 512
		}
		cfg.Rename = rename.Config{NumSubsets: 4, IntRegs: regs, FPRegs: regs, Impl: rename.ImplExactCount}
		cfg.MispredictPenalty = 16
		return cfg, alloc.NewRoundRobin(4), nil
	case ConfWSPools512:
		cfg.Rename = rename.Config{NumSubsets: 4, IntRegs: 512, FPRegs: 512, Impl: rename.ImplExactCount}
		cfg.MispredictPenalty = 16
		cfg.ClusterConfigs = poolConfigs()
		return cfg, alloc.NewClassPools(), nil
	case ConfWSRSRC384, ConfWSRSRC512, ConfWSRSRM512:
		regs := 384
		if name != ConfWSRSRC384 {
			regs = 512
		}
		cfg.Rename = rename.Config{NumSubsets: 4, IntRegs: regs, FPRegs: regs, Impl: rename.ImplExactCount}
		cfg.WSRS = true
		cfg.MispredictPenalty = 18 // second renaming implementation ("S")
		if name == ConfWSRSRM512 {
			return cfg, alloc.NewRM(seed), nil
		}
		return cfg, alloc.NewRC(seed), nil
	}
	return pipeline.Config{}, nil, fmt.Errorf("wsrs: unknown configuration %q", name)
}

// poolConfigs sizes the Figure 2b pools to the same aggregate
// resources as the 4-identical-cluster machine: 3 load/store units,
// 4 simple ALUs, a complex pool (2 multiply/divide-capable ALUs + 2
// FPUs) and 2 branch units. Write ports per subset stay at 3 or
// fewer, preserving the WS register file of Table 1.
func poolConfigs() []cluster.Config {
	return []cluster.Config{
		alloc.PoolLdSt:    {IssueWidth: 3, NumLSU: 3, IQSize: 56, MaxInflight: 56, WritePorts: 3},
		alloc.PoolALU:     {IssueWidth: 4, NumALU: 4, IQSize: 56, MaxInflight: 56, WritePorts: 3},
		alloc.PoolComplex: {IssueWidth: 2, NumALU: 2, NumFPU: 2, IQSize: 56, MaxInflight: 56, WritePorts: 3},
		alloc.PoolBranch:  {IssueWidth: 2, NumALU: 2, IQSize: 56, MaxInflight: 56, WritePorts: 2},
	}
}

// SimOpts bounds a simulation run. Zero values select the defaults
// used throughout the test suite (a scaled-down version of the
// paper's 20 M-warm / 10 M-measured protocol).
type SimOpts struct {
	WarmupInsts  uint64 // default 20 000
	MeasureInsts uint64 // default 60 000
	Seed         int64  // allocation-policy seed, default 1

	// Parallelism bounds the worker pool used by the grid-shaped
	// drivers (RunFigure4, RunFigure5, RunKernelSeeds): 0 selects
	// GOMAXPROCS, 1 restores the strictly serial harness. Individual
	// RunKernel calls are unaffected. Results are deterministic at
	// any setting (see RunGrid).
	Parallelism int

	// Probe attaches an observability probe (lifecycle events, stall
	// stack, occupancy histograms) to the run. Nil keeps every probe
	// branch off the hot path. A probe must not be shared between
	// concurrent simulations, so the grid drivers reject it — use
	// Stats to get per-cell stall stacks from a grid.
	Probe *Probe

	// Stats gives every grid cell its own private stall-stack probe;
	// the result travels in Result.Stalls. Safe at any parallelism.
	Stats bool

	// Observer receives RunGrid progress callbacks (cell started /
	// finished) from the worker goroutines; nil disables them.
	// GridTelemetry is the batteries-included implementation
	// (progress lines, Prometheus metrics, run manifest, host trace).
	Observer GridObserver

	// Check enables the self-checking layer: a co-simulation oracle (a
	// fresh functional reference diffed against every retired µop),
	// per-commit write/read-specialization legality checks, and
	// periodic structural audits (free-list conservation with exact
	// per-register accounting, ROB commit order, wakeup-table
	// consistency). Checkers are read-only observers — a checked run
	// is cycle-identical to an unchecked one. Failures surface as a
	// *CheckViolation error.
	Check bool
	// AuditEvery overrides the structural-audit cadence in cycles (0
	// selects the checker default of 1024; negative disables the
	// audits). Only meaningful with Check or Inject set.
	AuditEvery int64
	// Watchdog overrides the forward-progress window in cycles: a run
	// that commits nothing for this long fails with a "watchdog"
	// CheckViolation carrying a diagnostic dump of the stuck machine
	// (0 selects the pipeline default of 200 000). Active even
	// without Check.
	Watchdog int64
	// MaxCycles bounds each run in simulated cycles; exceeding it
	// fails the run with a "cycle-budget" CheckViolation (0 =
	// unbounded).
	MaxCycles int64
	// CellTimeout bounds each run in host wall-clock time; exceeding
	// it fails the run with a "time-budget" CheckViolation (0 =
	// unbounded). In a grid the budget is per cell.
	CellTimeout time.Duration
	// Cancel aborts in-flight simulation work once the channel closes
	// (nil = never): the run returns an error satisfying
	// errors.Is(err, context.Canceled) within microseconds. Wire a
	// context's Done channel here to make a grid cancelable — the
	// serving layer uses it so DELETE /v1/jobs/{id} stops a running
	// cell instead of letting it simulate to completion.
	Cancel <-chan struct{}
	// Checkpoint names a JSONL file RunGrid uses to persist finished
	// cells: a re-run with the same file skips cells already recorded
	// (marking them Resumed) and appends newly finished ones, so an
	// interrupted grid resumes where it stopped. Failed cells are
	// never recorded and re-run.
	Checkpoint string
	// Inject schedules one deliberate fault (see ParseFault). It
	// implies Check, so the checker guarding the corrupted structure
	// can catch it. A Fault is single-shot state shared with the
	// caller (its Applied method reports what happened), so RunGrid
	// rejects it — inject into individual runs.
	Inject *Fault
}

func (o SimOpts) withDefaults() SimOpts {
	if o.WarmupInsts == 0 {
		o.WarmupInsts = 20_000
	}
	if o.MeasureInsts == 0 {
		o.MeasureInsts = 60_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// checking reports whether the self-checking layer must be built.
func (o SimOpts) checking() bool { return o.Check || o.Inject != nil }

// runOpts translates the facade options into pipeline bounds; the
// checker, when any, is attached by the caller.
func (o SimOpts) runOpts() pipeline.RunOpts {
	ro := pipeline.RunOpts{
		WarmupInsts:  o.WarmupInsts,
		MeasureInsts: o.MeasureInsts,
		Probe:        o.Probe,
		StallLimit:   o.Watchdog,
		MaxCycles:    o.MaxCycles,
		Cancel:       o.Cancel,
	}
	if o.CellTimeout > 0 {
		ro.Deadline = time.Now().Add(o.CellTimeout)
	}
	return ro
}

// newChecker assembles the self-checking layer over the given
// per-context reference streams.
func (o SimOpts) newChecker(refs []check.RefSource) *check.Checker {
	return check.New(check.Config{Refs: refs, AuditEvery: o.AuditEvery, Fault: o.Inject})
}

// Result is the outcome of one simulation (re-exported from the
// timing model). Every run carries its activity counts in
// Result.Activity, ready for EnergyModelFor pricing.
type Result = pipeline.Result

// ModelVersion identifies the timing model behind a Result. It is part
// of every persisted result's address — the RunGrid checkpoint key and
// the serving layer's cell digest — so a result recorded by another
// model version is never resumed or served. Bump it whenever simulated
// results change: any edit to testdata/*.golden, or a new field in
// Result (version 1 added the always-on activity counts).
const ModelVersion = 1

// CheckViolation is the error every checker reports (re-exported from
// internal/check): which checker fired ("oracle", "conservation",
// "rob-order", "wakeup", "ws-legal", "rs-legal", "watchdog",
// "cycle-budget", "time-budget"), at which cycle, a one-line verdict
// and an optional multi-line diagnostic dump. Unwrap with errors.As.
type CheckViolation = check.Violation

// Fault is one scheduled fault injection (re-exported from
// internal/check/inject): a fault class and an arming cycle. After a
// run, its Applied method reports whether — and what — it corrupted.
type Fault = inject.Fault

// ParseFault reads a fault specification of the form "kind@cycle",
// e.g. "map@5000"; see FaultKinds for the classes.
func ParseFault(s string) (*Fault, error) { return inject.Parse(s) }

// FaultKinds returns the fault-class names ParseFault accepts: "map"
// (flip a rename-map entry), "leak" (lose a free register), "dup"
// (double-book a mapped register), "wakeup" (drop a result
// broadcast), "stream" (corrupt a committed µop's annotations).
func FaultKinds() []string {
	kinds := inject.Kinds()
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = string(k)
	}
	return out
}

// Probe, ProbeOptions, StallStack and StallCause re-export the
// observability layer (internal/probe) so command-line tools and
// experiments can request traces without importing internal packages.
type (
	Probe        = probe.Probe
	ProbeOptions = probe.Options
	StallStack   = probe.StallStack
	StallCause   = probe.Cause
)

// NewProbe builds an observability probe; attach it via SimOpts.Probe.
func NewProbe(o ProbeOptions) *Probe { return probe.New(o) }

// UopRecord is one recorded µop lifecycle (re-exported).
type UopRecord = probe.UopRecord

// Activity, EnergyModel, EnergyStack, Registry and TraceEvent
// re-export the dynamic telemetry layer (internal/telemetry): the
// per-run activity-counter block, the per-event energy prices and the
// priced energy stack, the Prometheus-exposable metric registry, and
// Chrome trace-event records.
type (
	Activity    = telemetry.Activity
	EnergyModel = telemetry.EnergyModel
	EnergyStack = telemetry.EnergyStack
	Registry    = telemetry.Registry
	TraceEvent  = telemetry.TraceEvent
)

// NewRegistry builds an empty metric registry (see Registry).
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// WriteTrace writes Chrome trace-event JSON loadable in Perfetto.
func WriteTrace(w io.Writer, events []TraceEvent) error { return telemetry.WriteTrace(w, events) }

// PipelineTrace converts probed µop lifecycle records into Chrome
// trace slices (one track per cluster, one process per SMT context).
func PipelineTrace(recs []UopRecord) []TraceEvent { return telemetry.PipelineTrace(recs) }

// WriteJSONL exports lifecycle records as one JSON object per line.
func WriteJSONL(w io.Writer, recs []UopRecord) error { return probe.WriteJSONL(w, recs) }

// WritePipeview renders lifecycle records as a text pipeline timeline.
func WritePipeview(w io.Writer, recs []UopRecord) error { return probe.WritePipeview(w, recs) }

// RunKernel simulates the named benchmark kernel on the named
// configuration. The kernel's functional simulation is memoized in
// the shared trace cache: repeated runs (other configurations, other
// seeds) replay the same annotated stream.
func RunKernel(conf ConfigName, kernel string, opts SimOpts) (Result, error) {
	return runCell(GridCell{Kernel: kernel, Config: conf}, opts)
}

// Kernels returns the names of the twelve SPEC proxy kernels in
// Figure 4 order.
func Kernels() []string { return kernels.Names() }

// IntKernels and FPKernels return the Figure 4 benchmark groups.
func IntKernels() []string { return names(kernels.Integers()) }

// FPKernels returns the floating-point benchmark names.
func FPKernels() []string { return names(kernels.Floats()) }

func names(ks []kernels.Kernel) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.Name
	}
	return out
}

// RunProgram assembles source, initializes memory via init (which may
// be nil), and simulates it on the named configuration until it halts
// or opts' instruction budget is exhausted.
func RunProgram(conf ConfigName, source string, init func(*funcsim.Memory), opts SimOpts) (Result, error) {
	prog, err := asm.Assemble(source)
	if err != nil {
		return Result{}, err
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	cfg, pol, err := Build(conf, opts.Seed)
	if err != nil {
		return Result{}, err
	}
	m := funcsim.NewMemory()
	if init != nil {
		init(m)
	}
	sim := funcsim.New(prog, m)
	ro := opts.runOpts()
	if opts.checking() {
		// The oracle replays an independent functional simulation of
		// the same program over identically initialized memory.
		rm := funcsim.NewMemory()
		if init != nil {
			init(rm)
		}
		ro.Check = opts.newChecker([]check.RefSource{funcsim.New(prog, rm)})
	}
	res, err := pipeline.Run(cfg, pol, sim, ro)
	if err != nil {
		return res, err
	}
	return res, sim.Err()
}

// Trace exposes the annotated dynamic micro-op stream of a kernel for
// custom experiments (the first n micro-ops). The stream comes from
// the shared trace cache; the returned slice is the caller's to
// mutate.
func Trace(kernel string, n int) ([]trace.MicroOp, error) {
	cur, err := kernelReader(kernel)
	if err != nil {
		return nil, err
	}
	ops := make([]trace.MicroOp, 0, n)
	for i := 0; i < n; i++ {
		m, ok := cur.Next()
		if !ok {
			break
		}
		ops = append(ops, m)
	}
	return ops, cur.Err()
}

// runPipeline runs a pre-collected micro-op slice through the timing
// model (used by the throughput benchmark and examples).
func runPipeline(cfg pipeline.Config, pol alloc.Policy, ops []trace.MicroOp) (Result, error) {
	return pipeline.Run(cfg, pol, trace.NewSliceReader(ops), pipeline.RunOpts{})
}

// RunKernelSMT simulates several SMT hardware contexts, one benchmark
// kernel per context, sharing the machine (paper §2.3 flags SMT as
// the scenario where register subsets realistically hold fewer
// registers than the combined logical state — making the move
// workaround, on in every configuration, load-bearing).
func RunKernelSMT(conf ConfigName, kernelNames []string, opts SimOpts) (Result, error) {
	if len(kernelNames) < 1 {
		return Result{}, fmt.Errorf("wsrs: need at least one context")
	}
	opts = opts.withDefaults()
	cfg, pol, err := Build(conf, opts.Seed)
	if err != nil {
		return Result{}, err
	}
	cfg.Threads = len(kernelNames)
	var srcs []trace.Reader
	for _, name := range kernelNames {
		cur, err := kernelReader(name)
		if err != nil {
			return Result{}, err
		}
		srcs = append(srcs, cur)
	}
	ro := opts.runOpts()
	if opts.checking() {
		// One independent reference stream per hardware context; the
		// oracle re-applies the private-address-space offset itself.
		refs := make([]check.RefSource, len(kernelNames))
		for i, name := range kernelNames {
			ref, err := kernelRef(name)
			if err != nil {
				return Result{}, err
			}
			refs[i] = ref
		}
		ro.Check = opts.newChecker(refs)
	}
	return pipeline.RunSMT(cfg, pol, srcs, ro)
}
