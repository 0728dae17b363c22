package telemetry

// MaxDomains bounds the per-subset / per-cluster fixed counter slots.
// The paper's design space tops out at 4 clusters and 4 register
// subsets; 8 leaves headroom for ablations without making the counter
// block dynamically sized (a fixed block keeps the hot-path increment
// a single indexed add, no bounds growth, no allocation).
const MaxDomains = 8

// Activity is one run's dynamic activity-counter block: how often each
// structure the paper prices in Table 1 actually fires. Every run
// counts: the timing model owns its block as plain fields (one
// goroutine writes it) and hands a copy out with the run's Result.
//
// Counting units, chosen so that the paper's §4.3 structural claims
// fall out of the dynamic counts:
//
//   - RegReads[s]: read-port accesses on register subset s — one per
//     source operand that was actually read from the register file
//     (operands caught off the bypass network do not re-read the file).
//   - RegWrites[s]: write accesses on subset s — one per writeback;
//     the energy model multiplies by the organization's copy count,
//     since every write is replicated into all copies.
//   - Wakeup[c]: tag broadcasts monitored by cluster c's scheduler
//     window, counting each operand side separately. A conventional
//     (or WS-only) machine wakes both operand sides of every cluster
//     on every result: 2 x NumClusters events per broadcast. Under
//     read specialization each operand side only monitors the two
//     clusters that may read its subset: 4 events per broadcast on the
//     4-cluster WSRS machine — exactly half, the paper's headline.
//   - BypassDrives[c]: results driven into cluster c's bypass points,
//     with the same per-operand-side accounting as Wakeup.
//   - BypassLocal / BypassCross: operands consumed directly off the
//     forwarding network (same cluster / across clusters) instead of
//     through the register file.
//   - Moves: injected cross-cluster move µops (§2.3 workaround (b)).
//   - Renames[s]: destination registers allocated from subset s.
//   - FreeListStalls[s]: dispatch slots lost because subset s had no
//     free register — the §2.3 subset pressure as a rate.
//
// Wakeup and BypassDrives are not counted per event: every write into
// subset s is seen by the same operand sides, so CountBroadcasts
// derives both from RegWrites once the run ends.
type Activity struct {
	RegReads       [MaxDomains]uint64
	RegWrites      [MaxDomains]uint64
	Wakeup         [MaxDomains]uint64
	BypassDrives   [MaxDomains]uint64
	BypassLocal    uint64
	BypassCross    uint64
	Moves          uint64
	Renames        [MaxDomains]uint64
	FreeListStalls [MaxDomains]uint64
}

// AddRegRead counts one read-port access on subset s.
func (a *Activity) AddRegRead(s int) { a.RegReads[s&(MaxDomains-1)]++ }

// AddRegWrite counts one write access on subset s.
func (a *Activity) AddRegWrite(s int) { a.RegWrites[s&(MaxDomains-1)]++ }

// AddRename counts one destination allocation from subset s.
func (a *Activity) AddRename(s int) { a.Renames[s&(MaxDomains-1)]++ }

// AddFreeListStall counts n dispatch slots stalled on subset s's free
// list.
func (a *Activity) AddFreeListStall(s int, n uint64) { a.FreeListStalls[s&(MaxDomains-1)] += n }

// CountBroadcasts adds the wake-up and bypass-drive events of the
// writes counted so far: each write into subset s is one tag broadcast
// monitored by monitorCount(s, c, ...) operand sides of cluster c, and
// drives the same number of bypass points.
func (a *Activity) CountBroadcasts(numSubsets, numClusters int, readSpecialized bool) {
	for s := 0; s < max(numSubsets, 1); s++ {
		w := a.RegWrites[s&(MaxDomains-1)]
		for c := 0; c < numClusters; c++ {
			n := w * uint64(monitorCount(s, c, numSubsets, numClusters, readSpecialized))
			a.Wakeup[c&(MaxDomains-1)] += n
			a.BypassDrives[c&(MaxDomains-1)] += n
		}
	}
}

// Reset zeroes every slot (the pipeline calls it at the warmup
// boundary, mirroring the probe, so the counters cover exactly the
// measured slice).
func (a *Activity) Reset() {
	*a = Activity{}
}

func sum(v *[MaxDomains]uint64) uint64 {
	var n uint64
	for _, x := range v {
		n += x
	}
	return n
}

// RegReadTotal sums read-port accesses over all subsets.
func (a *Activity) RegReadTotal() uint64 { return sum(&a.RegReads) }

// RegWriteTotal sums write accesses over all subsets.
func (a *Activity) RegWriteTotal() uint64 { return sum(&a.RegWrites) }

// WakeupTotal sums monitored broadcast events over all clusters.
func (a *Activity) WakeupTotal() uint64 { return sum(&a.Wakeup) }

// BypassDriveTotal sums bypass drive events over all clusters.
func (a *Activity) BypassDriveTotal() uint64 { return sum(&a.BypassDrives) }

// BypassUseTotal sums operands consumed off the forwarding network.
func (a *Activity) BypassUseTotal() uint64 { return a.BypassLocal + a.BypassCross }

// FreeListStallTotal sums free-list stall slots over all subsets.
func (a *Activity) FreeListStallTotal() uint64 { return sum(&a.FreeListStalls) }

// monitorCount is the broadcast visibility of one (subset, cluster)
// pair: how many of cluster c's operand sides monitor results written
// into subset s.
//
// Without read specialization every result bus reaches both operand
// sides of every cluster, so the count is 2. With the paper's
// 4-cluster read specialization (Figure 3: cluster = (first&2) |
// (second&1)), the first-operand side of cluster c only monitors
// subsets in its top/bottom pair (s&2 == c&2) and the second-operand
// side only its left/right pair (s&1 == c&1): each subset's results
// are monitored by 4 operand sides instead of 8 — the measured form of
// "wake-up and bypass monitor half the machine".
func monitorCount(s, c, numSubsets, numClusters int, readSpecialized bool) uint8 {
	if !readSpecialized || numClusters != 4 || numSubsets != 4 {
		return 2
	}
	var n uint8
	if s&2 == c&2 {
		n++ // first-operand side
	}
	if s&1 == c&1 {
		n++ // second-operand side
	}
	return n
}
