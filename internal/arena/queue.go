package arena

// Queue is a FIFO on a ring buffer: every engine's pending, prefill and
// hand-off queue and every device stream's kernel queue. Popping clears
// the vacated slot, so a drained queue pins nothing, and the backing
// array stops growing once it reaches the queue's high-water mark —
// unlike a slice popped with q = q[1:], which strands its head and
// reallocates every cycle.
//
// Besides Push and Pop it supports the two out-of-order edits engines
// make: PushFront (a preempting prefill jumps the line) and Remove (a
// job leaves from the middle when it completes early).
type Queue[T comparable] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// At returns the i-th element from the front; i must be in [0, Len).
func (q *Queue[T]) At(i int) T { return q.buf[q.slot(i)] }

// Front returns the head element; the queue must be non-empty.
func (q *Queue[T]) Front() T { return q.buf[q.head] }

// Push appends v at the back. A full ring doubles first, unrolled to
// start at 0; the growth is written out here so that Push stays small
// enough to inline.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(8, 2*len(q.buf)))
		copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[q.slot(q.n)] = v
	q.n++
}

// PushFront inserts v at the front: Push makes room, and v moves from the
// back to the slot before the head, which the room left free.
func (q *Queue[T]) PushFront(v T) {
	q.Push(v)
	var zero T
	q.buf[q.slot(q.n-1)] = zero
	q.head = q.slot(len(q.buf) - 1)
	q.buf[q.head] = v
}

// Pop removes and returns the head element; the queue must be non-empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = q.slot(1)
	q.n--
	return v
}

// Remove removes the first element equal to v, keeping the order of the
// rest, and reports whether one was found.
func (q *Queue[T]) Remove(v T) bool {
	for i := 0; i < q.n; i++ {
		if q.buf[q.slot(i)] != v {
			continue
		}
		for ; i < q.n-1; i++ {
			q.buf[q.slot(i)] = q.buf[q.slot(i+1)]
		}
		var zero T
		q.buf[q.slot(q.n-1)] = zero
		q.n--
		return true
	}
	return false
}

// slot maps a position relative to the head onto the ring.
func (q *Queue[T]) slot(i int) int {
	i += q.head
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}
