package ring

import (
	"slices"
	"testing"
)

func TestRingNumbersAcrossWraparound(t *testing.T) {
	r := New[int](4)
	for i := 0; i < 3; i++ {
		r.Add(i)
	}
	if got := r.Copy(0); !slices.Equal(got, []int{0, 1, 2}) || r.Len() != 3 || r.Total() != 3 {
		t.Fatalf("filling ring: Copy(0) = %v, len %d total %d", got, r.Len(), r.Total())
	}
	for i := 3; i < 10; i++ {
		r.Add(i)
	}
	cases := []struct {
		seq  uint64
		want []int
	}{
		{0, []int{6, 7, 8, 9}}, // evicted numbers are skipped
		{6, []int{6, 7, 8, 9}},
		{8, []int{8, 9}},
		{10, []int{}},
		{^uint64(0), []int{}},
	}
	for _, c := range cases {
		if got := r.Copy(c.seq); !slices.Equal(got, c.want) {
			t.Errorf("Copy(%d) = %v, want %v", c.seq, got, c.want)
		}
	}
	if r.Len() != 4 || r.Cap() != 4 || r.Total() != 10 {
		t.Fatalf("len %d cap %d total %d, want 4/4/10", r.Len(), r.Cap(), r.Total())
	}

	r.Reset()
	r.Add(42)
	if got := r.Copy(0); !slices.Equal(got, []int{42}) || r.Total() != 1 || r.Cap() != 4 {
		t.Fatalf("after Reset: Copy(0) = %v, total %d cap %d", got, r.Total(), r.Cap())
	}
}
