// Package ring is a FIFO queue over a circular buffer, for the
// simulator's per-node transmit queues (the radio's OS buffer, the
// link's pacing queue and fragment jobs). Popping from the front of a
// slice with q = q[1:] leaves the popped element reachable in the
// backing array and shrinks the capacity, so the next append allocates;
// a ring reuses its buffer, clears what it pops, and can push at the
// front in O(1).
package ring

// Queue is a FIFO of T. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T // length is zero or a power of two
	head int // index of the front element
	n    int // elements held
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Front returns the element PopFront would return. The queue must not
// be empty.
func (q *Queue[T]) Front() T { return q.buf[q.head] }

// PushBack appends v behind every queued element.
//
//pds:hotpath
func (q *Queue[T]) PushBack(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PushFront inserts v ahead of every queued element.
//
//pds:hotpath
func (q *Queue[T]) PushFront(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// PopFront removes and returns the front element, clearing its slot so
// the buffer keeps nothing it no longer queues. The queue must not be
// empty.
//
//pds:hotpath
func (q *Queue[T]) PopFront() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Reset drops every queued element and the buffer with them.
func (q *Queue[T]) Reset() { *q = Queue[T]{} }

// grow doubles the buffer, unrolling the queue to its start.
func (q *Queue[T]) grow() {
	buf := make([]T, max(4, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
