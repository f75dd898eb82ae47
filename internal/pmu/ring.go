// Package pmu models the hardware performance monitoring unit of the
// machine: the Last Branch Record (LBR) facility that exists on Intel
// processors (paper §2.1, Table 1), the Last Cache-coherence Record (LCR)
// extension the paper proposes (§4.2), and the L1D coherence-event
// performance counters the LCR generalizes (§2.2, Table 2).
package pmu

// Ring is a fixed-capacity circular record buffer: writing the (n+1)-th
// record evicts the oldest, exactly like the LBR register stack. Its
// buffer is allocated on the first push, so a facility that never records
// (the LBR of a core no thread runs on) costs no buffer. The zero Ring is
// unusable; construct with NewRing.
type Ring[T any] struct {
	buf  []T // nil until the first push
	size int
	next int // index the next record goes to
	full bool
}

// NewRing returns an empty ring holding up to capacity records.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic("pmu: ring capacity must be positive")
	}
	return &Ring[T]{size: capacity}
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return r.size }

// Len returns how many records are currently held.
func (r *Ring[T]) Len() int {
	if r.full {
		return r.size
	}
	return r.next
}

// Push records v, evicting the oldest record if the ring is full. It
// reports whether an older record was evicted to make room — the telemetry
// layer counts evictions to show how fast the hardware's short-term memory
// forgets.
func (r *Ring[T]) Push(v T) (evicted bool) {
	if r.buf == nil {
		r.buf = make([]T, r.size)
	}
	evicted = r.full
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	return evicted
}

// Clear empties the ring (the driver's CLEAN operation).
func (r *Ring[T]) Clear() {
	r.next = 0
	r.full = false
	clear(r.buf)
}

// Latest returns the records newest-first: Latest()[0] is the most recent,
// matching the paper's "n-th latest entry" indexing (1-based n maps to
// index n-1). The slice is freshly allocated.
func (r *Ring[T]) Latest() []T {
	n := r.Len()
	out := make([]T, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out[i] = r.buf[idx]
	}
	return out
}

// Oldest returns the records oldest-first.
func (r *Ring[T]) Oldest() []T {
	latest := r.Latest()
	for i, j := 0, len(latest)-1; i < j; i, j = i+1, j-1 {
		latest[i], latest[j] = latest[j], latest[i]
	}
	return latest
}
