// Package inflight provides the bounded FIFO behind the paper's in-flight
// branch records: the IUM (Section 5.1), the LSC's speculative local
// history manager (Figure 8) and the loop predictor's speculative
// iteration manager (Figure 5). Each pushes one record when a branch
// resolves, pops the oldest when that branch retires, and searches the
// live records youngest first.
//
// The capacity is the modelled hardware size. When more branches are in
// flight than it holds, pushing evicts the oldest record, and the FIFO
// counts that eviction as owed: the evicted record's branch pops nothing
// when it retires. Branches retire in fetch order, so the owed records are
// always those of the oldest in-flight branches and the count is exact.
//
// The ring is rounded up to a power of two and indexed with a mask, so no
// per-branch operation divides. Every record is also written to a mirror
// slot one ring length further on, so the live records are always one
// contiguous slice and a search walks it without wrapping.
package inflight

import "repro/internal/bitutil"

// FIFO is a bounded queue of in-flight records, oldest at the head.
type FIFO[T any] struct {
	buf   []T // a power-of-two ring >= capacity, then its mirror
	mask  int // ring length - 1
	limit int // logical capacity: pushing beyond it evicts the oldest
	head  int // slot of the oldest record
	n     int // live records
	owed  int // evicted records whose branches have not yet retired
}

// New returns an empty FIFO holding up to capacity records (at least one).
func New[T any](capacity int) FIFO[T] {
	capacity = max(capacity, 1)
	size := bitutil.CeilPow2(capacity)
	return FIFO[T]{buf: make([]T, 2*size), mask: size - 1, limit: capacity}
}

// Reset empties the FIFO, reusing its storage.
func (f *FIFO[T]) Reset() {
	clear(f.buf)
	f.head, f.n, f.owed = 0, 0, 0
}

// Push appends v as the youngest record, evicting the oldest when full.
func (f *FIFO[T]) Push(v T) {
	if f.n == f.limit {
		f.head = (f.head + 1) & f.mask
		f.n--
		f.owed++
	}
	slot := (f.head + f.n) & f.mask
	f.buf[slot] = v
	f.buf[slot+f.mask+1] = v
	f.n++
}

// Retire pops the oldest record for a retiring branch that pushed one.
// If that record was already evicted under overflow, nothing is popped.
func (f *FIFO[T]) Retire() {
	switch {
	case f.owed > 0:
		f.owed--
	case f.n > 0:
		f.head = (f.head + 1) & f.mask
		f.n--
	}
}

// Len returns the number of live records.
func (f *FIFO[T]) Len() int { return f.n }

// Live returns the live records, oldest first; searches walk it from the
// end. The slice is valid until the next Push, Retire or Reset.
func (f *FIFO[T]) Live() []T { return f.buf[f.head : f.head+f.n] }
