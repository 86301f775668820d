package vtime

import "fmt"

// Simulator is a discrete-event scheduler over a virtual clock. Substrates
// that need to act "later" in virtual time — wire delivery in netwire,
// timer expiry in the scheduler, asynchronous event raises in metered mode —
// enqueue callbacks at future instants; Run drains the queue, advancing the
// clock to each event's time before invoking it.
//
// The simulator is deliberately single-threaded: one goroutine calls Run (or
// Step) and all callbacks execute on it. This mirrors the paper's
// measurement setup, where the two machines in the UDP experiment alternate
// between processing and idling on the wire, and it makes virtual-time
// accounting deterministic.
type Simulator struct {
	clock *Clock
	queue eventHeap
	seq   uint64
	// idleSink, when non-nil, receives the duration of every clock jump
	// performed by the simulator while dequeuing (time during which no
	// code executed). The document-preview workload points this at its
	// CPU meter so idle time shows up in the §3.2 breakdown.
	idleSink *CPU
}

// NewSimulator creates a simulator over clock.
func NewSimulator(clock *Clock) *Simulator {
	return &Simulator{clock: clock}
}

// Clock returns the simulator's clock.
func (s *Simulator) Clock() *Clock { return s.clock }

// AccountIdleTo directs clock jumps (gaps with nothing scheduled to run) to
// cpu's idle account.
func (s *Simulator) AccountIdleTo(cpu *CPU) { s.idleSink = cpu }

// Event is what the simulator runs at a scheduled instant. A substrate
// whose pending work already lives in an object — a frame in flight on the
// wire — schedules that object itself instead of a closure over it.
type Event interface{ Fire() }

// funcEvent adapts a callback to Event. A func value is pointer-shaped, so
// the conversion to the interface does not allocate.
type funcEvent func()

func (f funcEvent) Fire() { f() }

// At schedules fn to run at instant t; see Schedule.
func (s *Simulator) At(t Time, fn func()) {
	if fn == nil {
		panic("vtime: Simulator.At with nil callback")
	}
	s.Schedule(t, funcEvent(fn))
}

// Schedule queues ev to fire at instant t. Events at the same instant fire
// in the order they were scheduled. Scheduling in the past (before the
// current clock reading) panics: it would require time travel and always
// indicates a substrate bug.
func (s *Simulator) Schedule(t Time, ev Event) {
	if t < s.clock.Now() {
		panic(fmt.Sprintf("vtime: event scheduled at %v, before now %v", t, s.clock.Now()))
	}
	s.seq++
	s.queue.push(simEvent{at: t, seq: s.seq, ev: ev})
}

// After schedules fn to run d after the current instant.
func (s *Simulator) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.clock.Now().Add(d), fn)
}

// Pending reports the number of scheduled, not-yet-run events.
func (s *Simulator) Pending() int { return len(s.queue) }

// Step runs the single earliest pending event, advancing the clock to its
// scheduled time first. It reports whether an event ran.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.queue.pop()
	if gap := ev.at.Sub(s.clock.Now()); gap > 0 {
		s.idleSink.Idle(gap)
	}
	s.clock.advanceTo(ev.at)
	ev.ev.Fire()
	return true
}

// Run drains the event queue. Callbacks may schedule further events; Run
// returns only when nothing remains. The limit guards against runaway
// simulations: Run panics after limit steps if limit > 0.
func (s *Simulator) Run(limit int) {
	steps := 0
	for s.Step() {
		steps++
		if limit > 0 && steps >= limit {
			panic(fmt.Sprintf("vtime: simulation exceeded %d steps", limit))
		}
	}
}

// RunUntil drains events scheduled at or before deadline, leaving later
// events queued. It returns the number of events run.
func (s *Simulator) RunUntil(deadline Time) int {
	n := 0
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
		n++
	}
	if gap := deadline.Sub(s.clock.Now()); gap > 0 {
		s.idleSink.Idle(gap)
		s.clock.advanceTo(deadline)
	}
	return n
}

type simEvent struct {
	at  Time
	seq uint64 // FIFO tiebreak for simultaneous events
	ev  Event
}

func (e *simEvent) before(o *simEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events by (at, seq), held by value so
// that scheduling allocates nothing once the slice has grown.
type eventHeap []simEvent

func (h *eventHeap) push(ev simEvent) {
	q := append(*h, ev)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() simEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = simEvent{} // the vacated slot must not keep the event reachable
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}
