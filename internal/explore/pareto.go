package explore

import (
	"encoding/json"
	"sort"
)

// KernelEval is one kernel's measured contribution to a point.
type KernelEval struct {
	Kernel   string  `json:"kernel"`
	IPC      float64 `json:"ipc"`
	EnergyPJ float64 `json:"energy_pj_per_inst"`
	Cycles   int64   `json:"cycles"`
	// Cached reports a checkpoint/cache hit. Deliberately not
	// serialized: the frontier document must be byte-identical whether
	// results came from simulation or a cache.
	Cached bool `json:"-"`
}

// Eval is one fully-evaluated design point: cycle-accurate IPC and
// priced dynamic energy averaged over the kernel set (in sorted kernel
// order, so the floats are bit-reproducible), plus the area proxy.
type Eval struct {
	Point    Point        `json:"point"`
	Digest   string       `json:"digest"`
	IPC      float64      `json:"ipc"`
	EnergyPJ float64      `json:"energy_pj_per_inst"`
	Area     float64      `json:"area_units"`
	Kernels  []KernelEval `json:"kernels,omitempty"`
}

// Dominates reports whether a Pareto-dominates b: no worse on every
// objective (IPC maximized; energy and area minimized) and strictly
// better on at least one. Two points with identical objectives do not
// dominate each other — both stay on the frontier.
func Dominates(a, b Eval) bool {
	if a.IPC < b.IPC || a.EnergyPJ > b.EnergyPJ || a.Area > b.Area {
		return false
	}
	return a.IPC > b.IPC || a.EnergyPJ < b.EnergyPJ || a.Area < b.Area
}

// DomEval is a dominated point with its provenance: the digest of the
// frontier point chosen as its witness.
type DomEval struct {
	Eval
	DominatedBy string `json:"dominated_by"`
}

// Frontier splits evaluations into the non-dominated set and the
// dominated remainder. Deterministic: the frontier is sorted by IPC
// descending (ties by digest), dominated points by digest. Each
// dominated point's witness is its first dominator in that ranking
// that is itself on the frontier — one always exists, because
// dominance is transitive and the evaluation set is finite, so every
// chain of dominators ends at a non-dominated point that (again by
// transitivity) dominates the original.
func Frontier(evals []Eval) (frontier []Eval, dominated []DomEval) {
	sorted := append([]Eval(nil), evals...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].IPC != sorted[j].IPC {
			return sorted[i].IPC > sorted[j].IPC
		}
		return sorted[i].Digest < sorted[j].Digest
	})
	onFrontier := make(map[string]bool, len(sorted))
	for _, e := range sorted {
		dom := false
		for _, d := range sorted {
			if d.Digest != e.Digest && Dominates(d, e) {
				dom = true
				break
			}
		}
		if !dom {
			frontier = append(frontier, e)
			onFrontier[e.Digest] = true
		}
	}
	for _, e := range sorted {
		if onFrontier[e.Digest] {
			continue
		}
		witness := ""
		for _, d := range sorted {
			if onFrontier[d.Digest] && Dominates(d, e) {
				witness = d.Digest
				break
			}
		}
		dominated = append(dominated, DomEval{Eval: e, DominatedBy: witness})
	}
	sort.Slice(dominated, func(i, j int) bool { return dominated[i].Digest < dominated[j].Digest })
	return frontier, dominated
}

// Document is the deterministic JSON artifact of one exploration: the
// canonical space, the run parameters, full prune/skip accounting, the
// frontier and every dominated point with provenance. Rendering the
// same exploration twice yields byte-identical output: there are no
// timestamps, no map iteration, and every slice has a defined order.
type Document struct {
	Version     int    `json:"version"`
	SpaceDigest string `json:"space_digest"`
	Space       Space  `json:"space"` // canonical form
	Strategy    string `json:"strategy"`
	Seed        int64  `json:"seed"`
	Warmup      uint64 `json:"warmup_insts"`
	Measure     uint64 `json:"measure_insts"`

	// Accounting: RawPoints is the full cross product, Skipped the
	// jointly-invalid combinations Enumerate dropped, Selected the
	// points the strategy chose, Pruned what the pre-filter removed,
	// Evaluated what reached cycle-accurate simulation.
	RawPoints int `json:"raw_points"`
	Skipped   int `json:"skipped_invalid"`
	Selected  int `json:"selected"`
	Evaluated int `json:"evaluated"`

	Frontier  []Eval    `json:"frontier"`
	Dominated []DomEval `json:"dominated"`
	PrunedSet []Pruned  `json:"pruned"`
}

// Render serializes the document in its canonical byte form.
func (d *Document) Render() ([]byte, error) {
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
