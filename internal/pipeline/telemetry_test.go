package pipeline

import (
	"reflect"
	"testing"

	"wsrs/internal/alloc"
	"wsrs/internal/telemetry"
	"wsrs/internal/trace"
)

// TestTelemetryRunIsCycleIdentical is the neutrality guarantee of the
// observers that stay optional: a run with the full probe and the
// self-checking layer attached must produce the exact Result of a
// plain run, activity counts included (mirroring the checked run
// neutrality test in check_test.go).
func TestTelemetryRunIsCycleIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		pol  func() alloc.Policy
	}{
		{"conv", conv(), func() alloc.Policy { return alloc.NewRoundRobin(4) }},
		{"wsrs", wsrs512(), func() alloc.Policy { return alloc.NewRC(7) }},
	} {
		ops := synthOps(13, 25000)
		plain, err := Run(tc.cfg, tc.pol(), trace.NewSliceReader(ops),
			RunOpts{WarmupInsts: 2000, MeasureInsts: 20000})
		if err != nil {
			t.Fatalf("%s plain: %v", tc.name, err)
		}
		// Fresh policy instance: stateful policies must see the same
		// decision sequence.
		observed, err := Run(tc.cfg, tc.pol(), trace.NewSliceReader(ops),
			RunOpts{WarmupInsts: 2000, MeasureInsts: 20000, Probe: fullProbe(), Check: checker(ops, nil, 0)})
		if err != nil {
			t.Fatalf("%s observed: %v", tc.name, err)
		}
		if observed.Stalls == nil {
			t.Fatalf("%s: probed run did not report a stall stack", tc.name)
		}
		observed.Stalls = nil
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("%s: observed run diverges from plain:\nplain    %+v\nobserved %+v",
				tc.name, plain, observed)
		}
		if plain.Activity.RegWriteTotal() == 0 || plain.Activity.WakeupTotal() == 0 {
			t.Errorf("%s: activity counters stayed empty", tc.name)
		}
	}
}

// TestActivityConservation pins the structural identities between the
// activity counters and the run's own statistics.
func TestActivityConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		pol  alloc.Policy
	}{
		{"conv", conv(), alloc.NewRoundRobin(4)},
		{"wsrs", wsrs512(), alloc.NewRC(7)},
	} {
		ops := synthOps(17, 30000)
		res, err := Run(tc.cfg, tc.pol, trace.NewSliceReader(ops),
			RunOpts{WarmupInsts: 2000, MeasureInsts: 20000})
		if err != nil {
			t.Fatal(err)
		}
		act := &res.Activity
		// Every result broadcast is monitored by sides-per-broadcast
		// operand sides, identically for wake-up and bypass drives.
		if act.WakeupTotal() != act.BypassDriveTotal() {
			t.Errorf("%s: wakeup %d != bypass drives %d (same broadcasts)",
				tc.name, act.WakeupTotal(), act.BypassDriveTotal())
		}
		sides := uint64(2 * tc.cfg.NumClusters)
		if tc.cfg.WSRS {
			sides = uint64(tc.cfg.NumClusters)
		}
		if act.RegWriteTotal() == 0 {
			t.Fatalf("%s: no writes counted", tc.name)
		}
		if got := act.WakeupTotal(); got != sides*act.RegWriteTotal() {
			t.Errorf("%s: wakeup events %d != %d sides x %d writes",
				tc.name, got, sides, act.RegWriteTotal())
		}
		// Sources either read the register file or catch the bypass;
		// the split must not exceed two operands per µop.
		srcEvents := act.RegReadTotal() + act.BypassUseTotal()
		if srcEvents > 2*res.Uops {
			t.Errorf("%s: %d source events for %d uops", tc.name, srcEvents, res.Uops)
		}
		if act.RegReadTotal() == 0 || act.BypassUseTotal() == 0 {
			t.Errorf("%s: degenerate source split: reads %d, bypass %d",
				tc.name, act.RegReadTotal(), act.BypassUseTotal())
		}
		if res.InjectedMoves != act.Moves {
			t.Errorf("%s: moves %d != activity moves %d", tc.name, res.InjectedMoves, act.Moves)
		}
		// Writes land only in valid subsets.
		for s := tc.cfg.Rename.NumSubsets; s < telemetry.MaxDomains; s++ {
			if act.RegWrites[s] != 0 {
				t.Errorf("%s: write counted in invalid subset %d", tc.name, s)
			}
		}
	}
}

// TestWSRSHalvesWakeupAndBypass is the acceptance criterion of the
// telemetry layer: on the same kernel, the 4-cluster WSRS machine's
// wake-up and bypass event counts are about half the conventional
// machine's — the paper's §4.3 claim observed dynamically rather than
// asserted structurally.
func TestWSRSHalvesWakeupAndBypass(t *testing.T) {
	ops := synthOps(23, 40000)
	opts := RunOpts{WarmupInsts: 2000, MeasureInsts: 30000}

	resConv, err := Run(conv(), alloc.NewRoundRobin(4), trace.NewSliceReader(ops), opts)
	if err != nil {
		t.Fatal(err)
	}
	resWSRS, err := Run(wsrs512(), alloc.NewRC(7), trace.NewSliceReader(ops), opts)
	if err != nil {
		t.Fatal(err)
	}
	actConv, actWSRS := &resConv.Activity, &resWSRS.Activity

	for _, m := range []struct {
		name       string
		conv, wsrs uint64
	}{
		{"wakeup", actConv.WakeupTotal(), actWSRS.WakeupTotal()},
		{"bypass", actConv.BypassDriveTotal(), actWSRS.BypassDriveTotal()},
	} {
		ratio := float64(m.wsrs) / float64(m.conv)
		if ratio < 0.45 || ratio > 0.55 {
			t.Errorf("%s: WSRS/conventional event ratio = %.3f, want ~0.5 (%d vs %d)",
				m.name, ratio, m.wsrs, m.conv)
		}
	}
}

// BenchmarkCorePipelinePlain is the engine's hot-loop cost on a
// synthetic trace, activity counting included.
func BenchmarkCorePipelinePlain(b *testing.B) {
	ops := synthOps(5, 20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(wsrs512(), alloc.NewRC(7), trace.NewSliceReader(ops), RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
