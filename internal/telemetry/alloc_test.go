package telemetry

import "testing"

// The engine bumps activity counts on every renamed and committed µop,
// and the daemon increments counters and observes histograms on every
// request and phase, so none of them may touch the heap.
func TestAllocFreeHotPaths(t *testing.T) {
	var c Counter
	if avg := testing.AllocsPerRun(1000, c.Inc); avg != 0 {
		t.Errorf("Counter.Inc: %.1f allocs/op, want 0", avg)
	}
	var a Activity
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		a.AddRegRead(i & 3)
		a.AddRegWrite(i & 3)
		i++
	}); avg != 0 {
		t.Errorf("Activity.AddRegRead+AddRegWrite: %.1f allocs/op, want 0", avg)
	}
	var h Histogram
	v := uint64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 7
	}); avg != 0 {
		t.Errorf("Histogram.Observe: %.1f allocs/op, want 0", avg)
	}
}
