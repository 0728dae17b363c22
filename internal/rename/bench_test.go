package rename

import (
	"testing"

	"wsrs/internal/isa"
)

// The BenchmarkCore* set times the per-event cost of the simulator's
// hottest structures under `go test -bench Core`; the AllocsPerRun
// tests beside them hold their allocation counts.

var benchPhys PhysReg

// BenchmarkCoreRenameLookup measures one map-table read plus the f/s
// subset-vector read — the per-operand work of every renamed source.
func BenchmarkCoreRenameLookup(b *testing.B) {
	r, err := New(Config{NumSubsets: 4, IntRegs: 512, FPRegs: 512})
	if err != nil {
		b.Fatal(err)
	}
	l := isa.LogicalReg{Class: isa.RegInt, Index: 17}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := r.Lookup(l)
		benchPhys = p + PhysReg(r.SubsetOf(isa.RegInt, p))
	}
}

// BenchmarkCoreRenameAllocate measures one full rename step: pick a
// free register from the target subset, update the map table, release
// the previous mapping.
func BenchmarkCoreRenameAllocate(b *testing.B) {
	r, err := New(Config{NumSubsets: 4, IntRegs: 512, FPRegs: 512})
	if err != nil {
		b.Fatal(err)
	}
	l := isa.LogicalReg{Class: isa.RegInt, Index: 17}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.BeginCycle()
		newP, prevP, ok := r.Rename(l, i&3)
		if !ok {
			b.Fatal("rename ran out of registers")
		}
		benchPhys = newP
		r.Free(isa.RegInt, prevP)
	}
}
