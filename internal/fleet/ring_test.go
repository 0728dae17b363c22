package fleet

import (
	"fmt"
	"testing"

	"wsrs/internal/serve"
)

func testDigests(n int) []string {
	out := make([]string, n)
	for i := range out {
		id := serve.CellID{Kernel: "gzip", Config: "RR 256", Seed: int64(i + 1), Warmup: 1000, Measure: 5000}
		out[i] = id.Digest()
	}
	return out
}

func TestRingDeterministicHome(t *testing.T) {
	build := func() *Ring {
		r := NewRing(0)
		for _, m := range []string{"http://c", "http://a", "http://b"} {
			r.Add(m)
		}
		return r
	}
	a, b := build(), build()
	for _, d := range testDigests(50) {
		ha, _ := a.Home(d)
		hb, _ := b.Home(d)
		if ha != hb {
			t.Fatalf("digest %s homes differ: %s vs %s", d[:8], ha, hb)
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	r := NewRing(0)
	members := []string{"http://a", "http://b", "http://c"}
	for _, m := range members {
		r.Add(m)
	}
	counts := map[string]int{}
	digests := testDigests(600)
	for _, d := range digests {
		h, ok := r.Home(d)
		if !ok {
			t.Fatal("no home on a populated ring")
		}
		counts[h]++
	}
	for _, m := range members {
		// A perfectly even split is 200; demand better than a 4x skew.
		if counts[m] < 50 {
			t.Fatalf("member %s owns only %d of %d cells: %v", m, counts[m], len(digests), counts)
		}
	}
}

func TestRingRemoveMovesOnlyOwnedCells(t *testing.T) {
	r := NewRing(0)
	for _, m := range []string{"http://a", "http://b", "http://c"} {
		r.Add(m)
	}
	digests := testDigests(300)
	before := make(map[string]string, len(digests))
	for _, d := range digests {
		before[d], _ = r.Home(d)
	}
	r.Remove("http://b")
	for _, d := range digests {
		after, ok := r.Home(d)
		if !ok {
			t.Fatal("ring emptied by removing one of three members")
		}
		if after == "http://b" {
			t.Fatal("removed member still owns cells")
		}
		// The consistency contract: cells not homed on the removed
		// member keep their home.
		if before[d] != "http://b" && after != before[d] {
			t.Fatalf("cell %s moved from %s to %s although its home stayed alive", d[:8], before[d], after)
		}
	}
	// Re-admission restores the original assignment exactly.
	r.Add("http://b")
	for _, d := range digests {
		if h, _ := r.Home(d); h != before[d] {
			t.Fatalf("cell %s did not return to %s after readmission", d[:8], before[d])
		}
	}
}

func TestRingSeqDistinctAndHomeFirst(t *testing.T) {
	r := NewRing(0)
	members := []string{"http://a", "http://b", "http://c", "http://d"}
	for _, m := range members {
		r.Add(m)
	}
	for _, d := range testDigests(40) {
		seq := r.Seq(d, 0)
		if len(seq) != len(members) {
			t.Fatalf("Seq returned %d members, want %d", len(seq), len(members))
		}
		home, _ := r.Home(d)
		if seq[0] != home {
			t.Fatalf("Seq[0] = %s, want the home %s", seq[0], home)
		}
		seen := map[string]bool{}
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("Seq repeats member %s", m)
			}
			seen[m] = true
		}
		if got := r.Seq(d, 2); len(got) != 2 || got[0] != seq[0] || got[1] != seq[1] {
			t.Fatalf("Seq(d, 2) = %v, want prefix of %v", got, seq)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(8)
	if _, ok := r.Home("abc"); ok {
		t.Fatal("empty ring claims a home")
	}
	if seq := r.Seq("abc", 3); len(seq) != 0 {
		t.Fatalf("empty ring returns candidates: %v", seq)
	}
	r.Add("http://a")
	r.Remove("http://a")
	if r.Len() != 0 {
		t.Fatal("add+remove left members behind")
	}
}

// ringSeqAllocBudget is what one Seq(d, 3) lookup allocates: the
// returned slice and the decoded digest.
const ringSeqAllocBudget = 2

func TestRingSeqAllocBudget(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 8; i++ {
		r.Add(fmt.Sprintf("http://backend-%d", i))
	}
	digests := testDigests(256)
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		r.Seq(digests[i%len(digests)], 3)
		i++
	}); avg > ringSeqAllocBudget {
		t.Errorf("Ring.Seq(d, 3): %.1f allocs/op, budget %d", avg, ringSeqAllocBudget)
	}
}

func BenchmarkCoreRingSeq(b *testing.B) {
	r := NewRing(0)
	for i := 0; i < 8; i++ {
		r.Add(fmt.Sprintf("http://backend-%d", i))
	}
	digests := testDigests(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seq(digests[i%len(digests)], 3)
	}
}
