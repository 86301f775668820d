// Package fifo is the queue the scheduler and the sockets share: the run
// queue, a connection's received segments, a socket's datagrams and a
// listener's accept backlog are all pushed at one end and popped at the
// other, usually one element deep.
package fifo

import "slices"

// Queue is a FIFO over one reusable buffer. Pop advances a head index and
// zeroes the slot it leaves, so a popped element is unreachable from the
// queue at once; the buffer is rewound whenever the queue drains, so a
// queue that keeps draining never reallocates. (Popping with q = q[1:]
// does neither: the backing array keeps every popped pointer alive until
// append outgrows it, and append outgrows it forever.)
//
// The zero Queue is empty and ready to use. It is not safe for concurrent
// use.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		// A queue that never drains: slide the live half down over the
		// popped half instead of growing. The copy is paid for by the
		// pops that made the room.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest element, reporting false when the
// queue is empty.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.head == len(q.buf) {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v, true
}

// Remove deletes the oldest element for which match reports true, keeping
// the order of the rest, and reports whether there was one.
func (q *Queue[T]) Remove(match func(T) bool) bool {
	i := slices.IndexFunc(q.buf[q.head:], match)
	if i < 0 {
		return false
	}
	q.buf = slices.Delete(q.buf, q.head+i, q.head+i+1) // zeroes the vacated slot
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return true
}
