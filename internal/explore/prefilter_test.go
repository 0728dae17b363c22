package explore

import "testing"

func TestPrefilterSurplusRegs(t *testing.T) {
	mk := func(regs int) Candidate {
		return NewCandidate(Point{Clusters: 4, Width: 2, Regs: regs, IQ: 56,
			ROB: 64, Specialize: SpecNone, Policy: "RR"})
	}
	// ROB 64, one subset: sufficiency is 84+64=148 registers, so all
	// three files are beyond it and only the smallest survives.
	cands := []Candidate{mk(1024), mk(384), mk(512)}
	surv, pruned := Prefilter(cands)
	if len(surv) != 1 || surv[0].Point.Regs != 384 {
		t.Fatalf("survivors = %+v, want only regs=384", surv)
	}
	if len(pruned) != 2 {
		t.Fatalf("pruned %d, want 2", len(pruned))
	}
	for _, p := range pruned {
		if p.Reason != "surplus-regs" {
			t.Errorf("reason %q, want surplus-regs", p.Reason)
		}
		if p.By != surv[0].Digest {
			t.Errorf("pruned by %s, want the surviving point %s", p.By, surv[0].Digest)
		}
	}
	// Below sufficiency nothing is pruned: a WSRS machine splits the
	// file four ways, so 512/4 = 128 < 148.
	w := func(regs int) Candidate {
		return NewCandidate(Point{Clusters: 4, Width: 2, Regs: regs, IQ: 56,
			ROB: 64, Specialize: SpecWSRS, Policy: "RC"})
	}
	surv, pruned = Prefilter([]Candidate{w(384), w(512)})
	if len(surv) != 2 || len(pruned) != 0 {
		t.Fatalf("insufficient-regs pair: %d survivors %d pruned, want 2/0", len(surv), len(pruned))
	}
}

func TestPrefilterAccounting(t *testing.T) {
	space := SmokeRequest().Space
	points, _ := space.Enumerate()
	cands := make([]Candidate, len(points))
	for i, p := range points {
		cands[i] = NewCandidate(p)
	}
	surv, pruned := Prefilter(cands)
	if len(surv)+len(pruned) != len(cands) {
		t.Fatalf("accounting: %d + %d != %d", len(surv), len(pruned), len(cands))
	}
	if len(pruned) == 0 {
		t.Fatalf("smoke space pruned nothing; the surplus-regs rule must fire on it")
	}
	seen := map[string]bool{}
	for _, s := range surv {
		seen[s.Digest] = true
	}
	for _, p := range pruned {
		if !seen[p.By] {
			t.Errorf("pruned point %s blames non-survivor %s", p.Digest, p.By)
		}
		if seen[p.Digest] {
			t.Errorf("point %s both pruned and surviving", p.Digest)
		}
	}
	// Deterministic partition.
	surv2, pruned2 := Prefilter(cands)
	if len(surv2) != len(surv) || len(pruned2) != len(pruned) {
		t.Fatalf("Prefilter not deterministic")
	}
	for i := range surv {
		if surv[i].Digest != surv2[i].Digest {
			t.Fatalf("survivor order unstable at %d", i)
		}
	}
}

func TestAreaProxyOrdering(t *testing.T) {
	p := Point{Clusters: 4, Width: 2, Regs: 512, IQ: 56, ROB: 224, Specialize: SpecNone, Policy: "RR"}
	q := p
	q.Specialize = SpecWSRS
	q.Policy = "RC"
	// Table 1's headline: specialization shrinks the register file.
	if AreaProxy(q) >= AreaProxy(p) {
		t.Errorf("WSRS area %f not below conventional %f", AreaProxy(q), AreaProxy(p))
	}
	big := p
	big.Regs = 1024
	if AreaProxy(big) <= AreaProxy(p) {
		t.Errorf("doubling registers did not grow the area proxy")
	}
}

func TestOrganizationForMatchesTable1(t *testing.T) {
	// The generalized formulas must reproduce the paper's fixed
	// organizations at their design points.
	cases := []struct {
		p                                          Point
		copies, readP, writeP, bankRegs, producers int
	}{
		{Point{Clusters: 4, Width: 2, Regs: 256, Specialize: SpecNone}, 4, 4, 12, 256, 12},
		{Point{Clusters: 2, Width: 2, Regs: 128, Specialize: SpecNone}, 2, 4, 6, 128, 6},
		{Point{Clusters: 4, Width: 2, Regs: 512, Specialize: SpecWrite}, 4, 4, 3, 512, 12},
		{Point{Clusters: 4, Width: 2, Regs: 512, Specialize: SpecWSRS}, 2, 4, 3, 128, 6},
	}
	for _, c := range cases {
		o := OrganizationFor(c.p)
		if o.Copies != c.copies || o.ReadPorts != c.readP || o.WritePorts != c.writeP ||
			o.BankRegs != c.bankRegs || o.ResultProducers != c.producers {
			t.Errorf("%s/%d clusters: got copies=%d ports=(%d,%d) bank=%d prod=%d, want copies=%d ports=(%d,%d) bank=%d prod=%d",
				c.p.Specialize, c.p.Clusters, o.Copies, o.ReadPorts, o.WritePorts, o.BankRegs, o.ResultProducers,
				c.copies, c.readP, c.writeP, c.bankRegs, c.producers)
		}
	}
}
