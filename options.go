package wsrs

import (
	"fmt"

	"wsrs/internal/alloc"
	"wsrs/internal/pipeline"
	"wsrs/internal/rename"
)

// MachineOption mutates a machine configuration; used by the ablation
// studies in bench_test.go and the example programs.
type MachineOption func(*pipeline.Config)

// WithRenameImpl1 selects the paper's first renaming implementation
// (§2.2.1): over-picking registers from every subset free list each
// cycle, with the unused picks recycled through a pipeline of the
// given depth.
func WithRenameImpl1(recycleDepth int) MachineOption {
	return func(c *pipeline.Config) {
		c.Rename.Impl = rename.ImplOverPick
		c.Rename.OverPickWidth = c.FetchWidth
		c.Rename.RecycleDepth = recycleDepth
		// §5.2.1: the first implementation saves two renaming stages
		// relative to the second on WSRS machines (16 vs 18 cycles).
		if c.WSRS {
			c.MispredictPenalty = 16
		}
	}
}

// WithRegisters overrides the total physical register count of both
// register classes (must divide evenly into the subsets).
func WithRegisters(n int) MachineOption {
	return func(c *pipeline.Config) {
		c.Rename.IntRegs = n
		c.Rename.FPRegs = n
	}
}

// WithXClusterDelay overrides the inter-cluster forwarding delay
// (paper §5.2 uses 1 cycle).
func WithXClusterDelay(d int) MachineOption {
	return func(c *pipeline.Config) { c.XClusterDelay = d }
}

// WithPerfectBP replaces the 2Bc-gskew predictor with an oracle.
func WithPerfectBP() MachineOption {
	return func(c *pipeline.Config) { c.PerfectBP = true }
}

// WithMispredictPenalty overrides the minimum misprediction penalty.
func WithMispredictPenalty(p int) MachineOption {
	return func(c *pipeline.Config) { c.MispredictPenalty = p }
}

// RunKernelWith is RunKernel with configuration overrides and an
// optional policy replacement (pass "" to keep the configuration's
// own policy; "RC-bal" selects the least-loaded ablation policy).
func RunKernelWith(conf ConfigName, kernel string, opts SimOpts, policy string, mods ...MachineOption) (Result, error) {
	return runCell(GridCell{Kernel: kernel, Config: conf, Policy: policy, Mods: mods}, opts)
}

// NewPolicy builds an allocation policy by name: "RR", "RM", "RC",
// "RC-bal" (least-loaded), "RC-dep" (locality-first) or "RR-aff"
// (round-robin with producer-cluster affinity).
func NewPolicy(name string, seed int64) (alloc.Policy, error) {
	return newPolicySized(name, seed, 4)
}

// newPolicySized is NewPolicy for a machine with k clusters. Only the
// pure round-robin baseline varies with the cluster count; the
// specialization-aware policies are defined over the fixed 4-cluster
// subset grid of the paper.
func newPolicySized(name string, seed int64, k int) (alloc.Policy, error) {
	switch name {
	case "RR":
		return alloc.NewRoundRobin(k), nil
	case "RM":
		return alloc.NewRM(seed), nil
	case "RC":
		return alloc.NewRC(seed), nil
	case "RC-bal":
		return alloc.NewRCBalanced(seed), nil
	case "RC-dep":
		return alloc.NewRCDep(seed), nil
	case "RR-aff":
		return alloc.NewRRAff(), nil
	}
	return nil, fmt.Errorf("wsrs: unknown policy %q", name)
}

// WithClusters overrides the number of execution clusters. Values
// other than 4 are only meaningful without read specialization (the
// WSRS read-pair mapping is defined over the 4-cluster grid);
// pipeline validation enforces that.
func WithClusters(n int) MachineOption {
	return func(c *pipeline.Config) { c.NumClusters = n }
}

// WithIssueWidth overrides the per-cluster issue width and scales the
// execution resources with it, keeping the paper's shape: w integer
// ALUs, one load/store unit and one FPU per two issue slots, and w+1
// writeback ports (w results plus one load return, generalizing the
// EV6-style 2 ALU + 1 load = 3 write ports of the 2-wide cluster).
func WithIssueWidth(w int) MachineOption {
	return func(c *pipeline.Config) {
		half := (w + 1) / 2
		c.Cluster.IssueWidth = w
		c.Cluster.NumALU = w
		c.Cluster.NumLSU = half
		c.Cluster.NumFPU = half
		c.Cluster.WritePorts = w + 1
	}
}

// WithIQSize overrides the per-cluster scheduler capacity. The paper
// uses an RUU-style window where the scheduler is the in-flight
// window, so MaxInflight moves with it.
func WithIQSize(n int) MachineOption {
	return func(c *pipeline.Config) {
		c.Cluster.IQSize = n
		c.Cluster.MaxInflight = n
	}
}

// WithROBSize overrides the reorder-buffer capacity.
func WithROBSize(n int) MachineOption {
	return func(c *pipeline.Config) { c.ROBSize = n }
}

// WithSubsets overrides the number of write-specialized register
// subsets. With specialization enabled the dispatch stage equates the
// result subset with the executing cluster, so any value other than
// the cluster count is rejected by pipeline validation.
func WithSubsets(n int) MachineOption {
	return func(c *pipeline.Config) { c.Rename.NumSubsets = n }
}

// Forwarding hardware options of paper §4.3.1 for the 4-cluster WSRS
// layout of Figure 3, where clusters form a 2x2 grid (C0 C1 / C2 C3)
// and every consumer cluster touches its producer's row or column.
const (
	// ForwardComplete is a complete fast-forwarding network: one
	// cycle between any two clusters (the paper's simulated design).
	ForwardComplete = "complete"
	// ForwardPairs provides fast-forwarding inside pairs of adjacent
	// clusters: one cycle to grid neighbours, two to the diagonal.
	ForwardPairs = "pairs"
	// ForwardIntra provides no inter-cluster fast-forwarding: remote
	// results take two cycles (a register-file trip).
	ForwardIntra = "intra"
)

// WithForwarding installs one of the §4.3.1 fast-forwarding options.
func WithForwarding(option string) MachineOption {
	return func(c *pipeline.Config) {
		n := c.NumClusters
		m := make([][]int, n)
		for p := 0; p < n; p++ {
			m[p] = make([]int, n)
			for q := 0; q < n; q++ {
				if p == q {
					continue
				}
				switch option {
				case ForwardComplete:
					m[p][q] = 1
				case ForwardPairs:
					// Adjacent in the 2x2 layout: share a row bit or
					// a column bit; the diagonal differs in both.
					if p^q == 3 {
						m[p][q] = 2
					} else {
						m[p][q] = 1
					}
				case ForwardIntra:
					m[p][q] = 2
				}
			}
		}
		c.ForwardDelay = m
	}
}

// WithDeadlockAvoidance enables workaround (a) of §2.3: allocation
// re-steers micro-ops away from register subsets with no free
// registers (within the read-specialization constraints).
func WithDeadlockAvoidance() MachineOption {
	return func(c *pipeline.Config) { c.DeadlockAvoidAlloc = true }
}

// WithSharedDividers enables §4.1's shared-divider organization: one
// integer divider per adjacent cluster pair instead of one per
// cluster, with static (cycle-parity) arbitration.
func WithSharedDividers() MachineOption {
	return func(c *pipeline.Config) { c.SharedDividers = true }
}
