package vtime

import (
	"slices"
	"testing"
)

// orderHarness drives a simulator and a reference model of it in lock
// step. The model is a plain list of pending events; its next event is the
// one with the least instant, scheduling order breaking ties — the
// simulator's contract, stated without a heap.
type orderHarness struct {
	t       *testing.T
	sim     *Simulator
	pending []*orderEvent // the model: every event scheduled and not yet run
	next    int
	ran     []int // ids in the order the simulator fired them
	want    []int // ids in the order the model says
}

// orderEvent is a pre-allocated event body. Its id is its scheduling order.
type orderEvent struct {
	h  *orderHarness
	id int
	at Time
	// spawn is how many further events Fire schedules at its own instant.
	spawn int
}

func (e *orderEvent) Fire() {
	h := e.h
	if now := h.sim.Clock().Now(); now != e.at {
		h.t.Errorf("event %d fired at %v, scheduled for %v", e.id, now, e.at)
	}
	h.ran = append(h.ran, e.id)
	for i := 0; i < e.spawn; i++ {
		h.schedule(i, 0, 0)
	}
}

// schedule queues one event d after now on both sides, through At, After
// or Schedule as how selects.
func (h *orderHarness) schedule(how int, d Duration, spawn int) {
	ev := &orderEvent{h: h, id: h.next, at: h.sim.Clock().Now().Add(d), spawn: spawn}
	h.next++
	h.pending = append(h.pending, ev)
	switch how % 3 {
	case 0:
		h.sim.At(ev.at, ev.Fire)
	case 1:
		h.sim.After(d, ev.Fire)
	case 2:
		h.sim.Schedule(ev.at, ev)
	}
}

// modelStep runs the model's next event if it is due by deadline.
func (h *orderHarness) modelStep(deadline Time) bool {
	best := -1
	for i, ev := range h.pending {
		// Ids rise with scheduling order, so the first of the least
		// instant is the earliest scheduled.
		if best < 0 || ev.at < h.pending[best].at {
			best = i
		}
	}
	if best < 0 || h.pending[best].at > deadline {
		return false
	}
	h.want = append(h.want, h.pending[best].id)
	h.pending = slices.Delete(h.pending, best, best+1)
	return true
}

const never = Time(1<<63 - 1)

// FuzzSimulatorOrder: whatever is scheduled, through whichever entry
// point, from outside or from inside a firing event, interleaved with
// Step and RunUntil, the events fire in the order of a stable sort by
// instant.
func FuzzSimulatorOrder(f *testing.F) {
	// Op pairs (kind + 6*spawn, arg): kinds 0-2 schedule through At, After,
	// Schedule at now+arg; 3 is Step; 4 is RunUntil(now+arg); 5 schedules
	// at now.
	f.Add([]byte{0, 5, 1, 5, 2, 5, 0, 5, 1, 5, 2, 5, 5, 0, 4, 5}) // many events at one instant
	f.Add([]byte{0, 9, 1, 8, 2, 7, 0, 6, 1, 5, 2, 4, 0, 3, 1, 2}) // strictly decreasing instants
	f.Add([]byte{2, 3, 3, 0, 0, 1, 3, 0, 3, 0})                   // a one-element heap
	f.Add([]byte{2 + 6*3, 2, 3, 0, 3, 0, 3, 0})                   // scheduling during the last pop
	f.Add([]byte{0 + 6*2, 1, 5 + 6*1, 0, 4, 1, 1, 0, 3, 0, 4, 200})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		var clock Clock
		h := &orderHarness{t: t, sim: NewSimulator(&clock)}
		for i := 0; i+1 < len(ops); i += 2 {
			kind, spawn, arg := int(ops[i]%6), int(ops[i]/6%4), Duration(ops[i+1])
			switch kind {
			case 0, 1, 2:
				h.schedule(kind, arg, spawn)
			case 5:
				h.schedule(int(arg), 0, spawn)
			case 3:
				stepped := h.sim.Step()
				if stepped != h.modelStep(never) {
					t.Fatalf("op %d: Step = %v with %d events pending in the model", i/2, stepped, len(h.pending))
				}
			case 4:
				deadline := clock.Now().Add(arg)
				n := h.sim.RunUntil(deadline)
				m := 0
				for h.modelStep(deadline) {
					m++
				}
				if n != m || clock.Now() != deadline {
					t.Fatalf("op %d: RunUntil(%v) ran %d events to %v, model ran %d", i/2, deadline, n, clock.Now(), m)
				}
			}
			if h.sim.Pending() != len(h.pending) {
				t.Fatalf("op %d: %d events pending, model has %d", i/2, h.sim.Pending(), len(h.pending))
			}
		}
		h.sim.Run(0)
		for h.modelStep(never) {
		}
		if !slices.Equal(h.ran, h.want) {
			t.Fatalf("fire order %v, want %v", h.ran, h.want)
		}
	})
}

// Scheduling and running a callback that already exists costs no
// allocation once the heap has grown: the event is held by value and a
// func value converts to the Event interface as it is.
func TestSimulatorStepZeroAlloc(t *testing.T) {
	var clock Clock
	sim := NewSimulator(&clock)
	ran := 0
	fn := func() { ran++ }
	for i := 0; i < 64; i++ {
		sim.After(Duration(i), fn)
	}
	sim.Run(0)
	allocs := testing.AllocsPerRun(1000, func() {
		sim.At(clock.Now(), fn)
		sim.After(3, fn)
		sim.Step()
		sim.Step()
	})
	if allocs != 0 {
		t.Fatalf("At + Step allocates %.1f times per run, want 0", allocs)
	}
	if ran != 64+2*1001 {
		t.Fatalf("ran %d callbacks", ran)
	}
}
