package explore

// SmokeRequest returns the small canonical exploration the tests
// share, the same space wsrsexplore's defaults (and so CI's explore
// smoke) describe: 48 raw combinations over 2/4 clusters, three
// register files, two window sizes and all three specialization
// modes' representable subsets, of which 18 are simulable, on one
// fast kernel with a short window. Small enough for seconds of wall
// clock, rich enough that the surplus-registers prune rule fires.
func SmokeRequest() Request {
	return Request{
		Space: Space{
			Clusters:   []int{2, 4},
			Widths:     []int{2},
			Regs:       []int{384, 512, 1024},
			IQSizes:    []int{16, 56},
			ROBSizes:   []int{64},
			Specialize: []string{SpecNone, SpecWSRS},
			Policies:   []string{"RR", "RC"},
			Kernels:    []string{"gzip"},
		},
		Strategy: StrategyGrid,
		Seed:     1,
		Warmup:   2_000,
		Measure:  8_000,
	}
}
