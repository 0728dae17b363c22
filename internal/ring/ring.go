// Package ring is the bounded FIFO the observability layers share: the
// otrace span recorder, the flight recorder's event window and the
// daemon's phase-sample log all keep "the most recent N values, oldest
// first, plus how many ever arrived" in one Ring.
package ring

// Ring holds the most recent Cap() values added, overwriting the oldest
// once full. Values are numbered in arrival order from 0, so a reader
// can resume after the last number it saw and tell how many it missed.
// The buffer is allocated once; Add never allocates. A Ring is not safe
// for concurrent use: each owner guards it with the lock that already
// guards its other state.
type Ring[T any] struct {
	buf   []T
	next  int    // buffer slot the next Add writes
	total uint64 // values ever added; the next value's number
}

// New builds a ring holding at most capacity values (capacity > 0).
func New[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, 0, capacity)}
}

// Add appends v, evicting the oldest value once the ring is full.
func (r *Ring[T]) Add(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
	}
	r.next++
	if r.next == cap(r.buf) {
		r.next = 0
	}
	r.total++
}

// Len returns the number of values held.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return cap(r.buf) }

// Total returns the number of values ever added; Total() - Len() have
// been evicted, and the oldest value held is number Total() - Len().
func (r *Ring[T]) Total() uint64 { return r.total }

// Reset drops every value and restarts the numbering, keeping the
// buffer.
func (r *Ring[T]) Reset() {
	r.buf = r.buf[:0]
	r.next = 0
	r.total = 0
}

// Range calls fn on each held value numbered seq or later, oldest
// first. fn must not retain the pointer past the next Add.
func (r *Ring[T]) Range(seq uint64, fn func(*T)) {
	if oldest := r.total - uint64(len(r.buf)); seq < oldest {
		seq = oldest
	}
	// next tracks total modulo the capacity, so value g sits at g % cap.
	for g := seq; g < r.total; g++ {
		fn(&r.buf[g%uint64(cap(r.buf))])
	}
}

// Copy returns the held values numbered seq or later, oldest first.
func (r *Ring[T]) Copy(seq uint64) []T {
	out := make([]T, 0, len(r.buf))
	r.Range(seq, func(v *T) { out = append(out, *v) })
	return out
}
