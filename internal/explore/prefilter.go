package explore

import (
	"fmt"
	"sort"

	"wsrs/internal/isa"
)

// Candidate is a selected point before any cycle-accurate run: its
// identity and its area proxy.
type Candidate struct {
	Point  Point   `json:"point"`
	Digest string  `json:"digest"`
	Area   float64 `json:"area_units"`
}

// NewCandidate scores one point.
func NewCandidate(p Point) Candidate {
	return Candidate{Point: p, Digest: p.Digest(), Area: AreaProxy(p)}
}

// Pruned records one pre-filtered point: the digest of the surviving
// point it simulates cycle-identically to, and the rule that says so
// ("surplus-regs").
type Pruned struct {
	Candidate
	By     string `json:"pruned_by"`
	Reason string `json:"reason"`
}

// RegsSufficient reports whether a register file of the point's size
// can never stall renaming: each of its per-subset free lists holds
// enough registers to back the whole rename map plus every in-flight
// µop even if all of them land in one subset. Beyond this threshold
// the free lists never empty, so register count has zero timing
// effect — two points differing only in surplus registers simulate
// cycle-identically (the surplus-regs prune rule relies on this).
func RegsSufficient(p Point) bool {
	return p.Regs/p.Subsets() >= isa.IntMapSize+p.ROB
}

// regsKey collapses a point to everything except its register count.
func regsKey(p Point) string {
	return fmt.Sprintf("%d|%d|%d|%d|%s|%s", p.Clusters, p.Width, p.IQ, p.ROB, p.Specialize, p.Policy)
}

// Prefilter partitions candidates into survivors (sent to
// cycle-accurate simulation) and pruned points (recorded, never
// simulated) by one exact rule, surplus-regs: among points identical
// except for the register count, every point whose file is beyond
// rename sufficiency (RegsSufficient) simulates cycle-identically, so
// only the smallest such file survives and the larger ones — pure
// area and energy cost — are pruned against it. Every point the rule
// prunes has a surviving witness, so a non-empty input always keeps
// at least one survivor. Both slices come back in digest order.
func Prefilter(cands []Candidate) (survivors []Candidate, pruned []Pruned) {
	minSufficient := map[string]Candidate{}
	for _, c := range cands {
		if !RegsSufficient(c.Point) {
			continue
		}
		k := regsKey(c.Point)
		if best, ok := minSufficient[k]; !ok || c.Point.Regs < best.Point.Regs {
			minSufficient[k] = c
		}
	}
	for _, c := range cands {
		if RegsSufficient(c.Point) {
			if best := minSufficient[regsKey(c.Point)]; c.Point.Regs > best.Point.Regs {
				pruned = append(pruned, Pruned{Candidate: c, By: best.Digest, Reason: "surplus-regs"})
				continue
			}
		}
		survivors = append(survivors, c)
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].Digest < survivors[j].Digest })
	sort.Slice(pruned, func(i, j int) bool { return pruned[i].Digest < pruned[j].Digest })
	return survivors, pruned
}
