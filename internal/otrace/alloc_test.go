package otrace

// The DESIGN.md §6 allocation budget for the span hot path: tracing
// stays enabled in production, so Begin / SetStr / SetInt / SetBool /
// End must not allocate in steady state — spans live on the caller's
// stack and are copied by value into the preallocated ring. The test
// pins the budget exactly; the BenchmarkCoreSpan* entries time the
// same calls under `go test -bench Core`.

import "testing"

func TestSpanHotPathAllocFree(t *testing.T) {
	r := NewRecorder(64)
	parent := r.Begin("parent", Ctx{})
	r.End(&parent)
	ctx := parent.Ctx()

	// 1000 runs over a 64-slot ring exercises both the fill phase
	// (append below capacity) and the wraparound overwrite path.
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.Begin("op", ctx)
		sp.SetStr("kernel", "gzip")
		sp.SetInt("cell", 3)
		sp.SetBool("hit", true)
		r.End(&sp)
	})
	if allocs != 0 {
		t.Fatalf("span hot path allocates %.1f times per span, budget is 0", allocs)
	}

	allocs = testing.AllocsPerRun(1000, func() {
		_ = r.NewTrace()
		_ = r.AllocID()
		_ = Now()
	})
	if allocs != 0 {
		t.Fatalf("ID/clock path allocates %.1f times per call, budget is 0", allocs)
	}
}

func BenchmarkCoreSpanBeginEnd(b *testing.B) {
	r := NewRecorder(DefaultCapacity)
	parent := r.Begin("parent", Ctx{})
	r.End(&parent)
	ctx := parent.Ctx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := r.Begin("op", ctx)
		r.End(&sp)
	}
}

func BenchmarkCoreSpanAttrs(b *testing.B) {
	r := NewRecorder(DefaultCapacity)
	parent := r.Begin("parent", Ctx{})
	r.End(&parent)
	ctx := parent.Ctx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := r.Begin("op", ctx)
		sp.SetStr("kernel", "gzip")
		sp.SetInt("cell", int64(i))
		sp.SetBool("hit", i&1 == 0)
		r.End(&sp)
	}
}

func BenchmarkCoreSpanNewTrace(b *testing.B) {
	r := NewRecorder(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.NewTrace()
	}
}
