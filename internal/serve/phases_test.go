package serve

import (
	"fmt"
	"testing"
)

func TestPhaseLogPaging(t *testing.T) {
	l := newPhaseLog(4)
	for i := 0; i < 3; i++ {
		l.add(PhaseQueue, int64(i))
	}
	p := l.page(0)
	if p.Next != 3 || p.Dropped != 0 || len(p.Samples) != 3 {
		t.Fatalf("pre-wrap page = next %d dropped %d samples %d", p.Next, p.Dropped, len(p.Samples))
	}
	for i, s := range p.Samples {
		if s.Us != int64(i) {
			t.Fatalf("sample %d = %d, want oldest-first order", i, s.Us)
		}
	}

	// Wrap the ring: samples 3..9 land, 0..5 evicted.
	for i := 3; i < 10; i++ {
		l.add(PhaseSimulate, int64(i))
	}
	p = l.page(0)
	if p.Next != 10 || p.Dropped != 6 || len(p.Samples) != 4 {
		t.Fatalf("post-wrap page = next %d dropped %d samples %d; want 10/6/4", p.Next, p.Dropped, len(p.Samples))
	}
	if p.Samples[0].Us != 6 || p.Samples[3].Us != 9 {
		t.Fatalf("post-wrap window = %v, want samples 6..9", p.Samples)
	}

	// A cursor inside the retained window reads only newer samples.
	p = l.page(8)
	if p.Dropped != 0 || len(p.Samples) != 2 || p.Samples[0].Us != 8 {
		t.Fatalf("mid-window page = %+v", p)
	}
	// Caught up: nothing to return, cursor stable.
	p = l.page(10)
	if len(p.Samples) != 0 || p.Next != 10 {
		t.Fatalf("caught-up page = %+v", p)
	}
	// A cursor past the end behaves like caught-up: a client reads the
	// current cursor this way before it starts work.
	p = l.page(^uint64(0))
	if len(p.Samples) != 0 || p.Next != 10 {
		t.Fatalf("overshoot page = %+v", p)
	}
}

func TestPhaseLogAddAllocFree(t *testing.T) {
	l := newPhaseLog(64)
	allocs := testing.AllocsPerRun(1000, func() {
		l.add(PhaseCache, 42)
	})
	if allocs != 0 {
		t.Fatalf("phaseLog.add allocates %.1f times per sample, budget is 0", allocs)
	}
}

func TestSlowRingKeepsSlowest(t *testing.T) {
	r := newSlowRing(3)
	for i := 0; i < 10; i++ {
		r.add(SlowJob{JobID: fmt.Sprintf("j-%d", i), TotalMs: float64(i)})
	}
	got := r.snapshot()
	if len(got) != 3 {
		t.Fatalf("ring holds %d entries, want 3", len(got))
	}
	want := []float64{9, 8, 7}
	for i, sj := range got {
		if sj.TotalMs != want[i] {
			t.Fatalf("ring[%d] = %.0f ms, want %.0f (slowest first)", i, sj.TotalMs, want[i])
		}
	}
	// A fast job does not displace anything.
	r.add(SlowJob{JobID: "fast", TotalMs: 0.5})
	if got := r.snapshot(); len(got) != 3 || got[2].TotalMs != 7 {
		t.Fatalf("fast job displaced a slow one: %+v", got)
	}
}
