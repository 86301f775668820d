package fifo

import "testing"

func TestPopZeroesSlotAndRewinds(t *testing.T) {
	var q Queue[*int]
	a, b := new(int), new(int)
	q.Push(a)
	q.Push(b)
	if got, ok := q.Pop(); !ok || got != a {
		t.Fatalf("Pop = %p, %v; want %p", got, ok, a)
	}
	if q.buf[0] != nil {
		t.Fatal("popped slot still holds the element")
	}
	if got, ok := q.Pop(); !ok || got != b {
		t.Fatalf("Pop = %p, %v; want %p", got, ok, b)
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue not rewound: head %d, len %d", q.head, len(q.buf))
	}
	for i, v := range q.buf[:cap(q.buf)] {
		if v != nil {
			t.Fatalf("slot %d of the drained buffer still holds an element", i)
		}
	}
	if _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Fatal("Pop on an empty queue succeeded")
	}
}

func TestCapacityStableWhenDraining(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	for i := 0; i < 3; i++ { // the deepest the loop below gets
		q.Push(v)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	want := cap(q.buf)
	for round := 0; round < 10000; round++ {
		for i := 0; i <= round%3; i++ {
			q.Push(v)
		}
		for q.Len() > 0 {
			q.Pop()
		}
		if cap(q.buf) != want {
			t.Fatalf("round %d: capacity %d, was %d", round, cap(q.buf), want)
		}
	}
}

// A queue that never drains (a run queue with two strands yielding in
// turn) must not grow either, and must stay FIFO across the slide.
func TestCapacityBoundedWhenNeverDrained(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for ; next < 5; next++ {
		q.Push(next)
	}
	for round := 0; round < 10000; round++ {
		got, ok := q.Pop()
		if !ok || got != want {
			t.Fatalf("round %d: Pop = %d, %v; want %d", round, got, ok, want)
		}
		want++
		q.Push(next)
		next++
		if q.Len() != 5 {
			t.Fatalf("round %d: Len = %d", round, q.Len())
		}
	}
	if cap(q.buf) > 32 {
		t.Fatalf("five live elements hold a buffer of %d", cap(q.buf))
	}
}

func TestRemove(t *testing.T) {
	var q Queue[*int]
	vals := []*int{new(int), new(int), new(int), new(int)}
	for _, v := range vals {
		q.Push(v)
	}
	q.Pop() // removal must respect the head
	is := func(want *int) func(*int) bool { return func(v *int) bool { return v == want } }
	if q.Remove(is(vals[0])) {
		t.Fatal("removed an element that was already popped")
	}
	if !q.Remove(is(vals[2])) || q.Len() != 2 {
		t.Fatalf("Remove failed, Len = %d", q.Len())
	}
	if q.buf[:cap(q.buf)][3] != nil {
		t.Fatal("the slot vacated by Remove still holds an element")
	}
	for _, want := range []*int{vals[1], vals[3]} {
		if got, _ := q.Pop(); got != want {
			t.Fatal("Remove disturbed the order")
		}
	}
	q.Push(vals[0])
	if !q.Remove(is(vals[0])) || q.Len() != 0 || q.head != 0 {
		t.Fatal("removing the last element did not rewind the queue")
	}
}
