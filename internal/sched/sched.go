// Package sched provides the strand (thread) package and scheduler
// substrate. In SPIN, threads and scheduling are extensions, and the
// scheduler announces every scheduling operation by raising the Strand.Run
// event — Table 3 shows it as the most frequently raised event in the
// document-preview workload. Extensions managing user-space threads install
// EPHEMERAL handlers on it to save and restore thread state during context
// switches (§2.6).
//
// Strands are cooperative state machines: a strand's body is a StepFunc the
// scheduler calls each time the strand is dispatched; the body performs a
// bounded amount of (virtual-time-charged) work and reports whether the
// strand yielded, blocked, or finished. This continuation style keeps the
// whole simulation single-threaded and deterministic under the
// discrete-event clock; see DESIGN.md for the substitution note.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"spin/internal/dispatch"
	"spin/internal/fifo"
	"spin/internal/rtti"
	"spin/internal/vtime"
)

// State is a strand's scheduling state.
type State int

const (
	// Ready strands are on the run queue.
	Ready State = iota
	// Running is the strand currently executing.
	Running
	// Blocked strands await a Wakeup.
	Blocked
	// Dead strands have finished or been killed.
	Dead
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Dead:
		return "dead"
	}
	return "state(?)"
}

// Status is what a strand body reports after each step.
type Status int

const (
	// Yield keeps the strand runnable; it re-enters the run queue.
	Yield Status = iota
	// Block parks the strand until Wakeup.
	Block
	// Done retires the strand.
	Done
)

// StepFunc is a strand body: called once per dispatch, it performs a slice
// of work and reports the strand's disposition.
type StepFunc func(st *Strand) Status

// StrandType is the rtti reference type for strands (the paper's Strand.T).
var StrandType = rtti.NewRef("Strand.T", nil)

// Module is the strand package's module descriptor; it holds authority
// over the Strand.Run event.
var Module = rtti.NewModule("Strand", "Strand")

// Strand is a thread of control (the paper's Strand.T).
type Strand struct {
	id    uint64
	name  string
	space uint64
	sched *Scheduler
	step  StepFunc
	// idWord is id boxed once at Spawn: the first Strand.Run argument of
	// every dispatch of this strand.
	idWord any
	// state holds a State value. It is atomic because supervisory policy
	// (an EPHEMERAL-termination watchdog, which runs on its own goroutine
	// in real-time mode) may Kill a strand while the scheduler is mid-tick
	// on another.
	state atomic.Int32
	// Locals carries per-strand extension state (emulator task data,
	// socket wait registrations).
	Locals map[string]any
}

// RTTIType implements rtti.Described.
func (s *Strand) RTTIType() rtti.Type { return StrandType }

// ID returns the strand identifier (passed as the first Strand.Run
// argument, so word predicates can discriminate on it).
func (s *Strand) ID() uint64 { return s.id }

// Name returns the strand's diagnostic name.
func (s *Strand) Name() string { return s.name }

// Space returns the identifier of the address space the strand executes
// in; syscall guards discriminate on it (Figure 3).
func (s *Strand) Space() uint64 { return s.space }

// State returns the scheduling state.
func (s *Strand) State() State { return State(s.state.Load()) }

// casState atomically transitions the strand from one state to another,
// reporting whether the transition happened.
func (s *Strand) casState(from, to State) bool {
	return s.state.CompareAndSwap(int32(from), int32(to))
}

func (s *Strand) String() string {
	return fmt.Sprintf("strand %d (%s, %s)", s.id, s.name, s.State())
}

// Scheduler is a round-robin strand scheduler. Each scheduling operation
// raises Strand.Run before dispatching the chosen strand.
type Scheduler struct {
	d   *dispatch.Dispatcher
	cpu *vtime.CPU
	sim *vtime.Simulator

	// RunEvent is Strand.Run: raised with (strand-id, strand) on every
	// dispatch of a strand.
	RunEvent *dispatch.Event

	// mu guards the run queue and the pump flag. A tick takes it twice:
	// to pop, and after the step to requeue, check for more work and arm
	// the next pump (see tick). It is never held across a Strand.Run raise
	// or a strand step, so strand bodies and handlers may reenter
	// Spawn/Wakeup/Kill freely; strand state itself is atomic (see
	// Strand.state), because Kill may run on another goroutine.
	mu       sync.Mutex
	runq     fifo.Queue[*Strand]
	pumping  bool
	live     atomic.Int64
	nextID   atomic.Uint64
	switches atomic.Int64
	// pump is tickFromSim bound once, so scheduling a tick allocates
	// nothing.
	pump func()

	// WakeLatency delays the first dispatch after the run queue goes
	// from empty to non-empty, modelling scheduling quantum and dispatch
	// latency on a timeshared machine. While a woken strand waits out
	// the latency, further wakeups coalesce — which is why the paper's
	// X server performs one select per several arriving packets
	// (Table 3: 595 EventNotify raises against 2505 TCP packets).
	WakeLatency vtime.Duration
}

// ErrNoSimulator is returned by Run when the scheduler was built without a
// simulator; use RunToCompletion instead.
var ErrNoSimulator = errors.New("sched: scheduler has no simulator attached")

// New builds a scheduler over the dispatcher. cpu and sim may be nil for
// unmetered, real-time use. The Strand.Run event is defined with an
// intrinsic handler (the scheduler's own bookkeeping, a no-op) so that a
// freshly booted system dispatches it as a plain procedure call.
func New(d *dispatch.Dispatcher, cpu *vtime.CPU, sim *vtime.Simulator) (*Scheduler, error) {
	s := &Scheduler{d: d, cpu: cpu, sim: sim}
	s.pump = s.tickFromSim
	run, err := d.DefineEvent("Strand.Run",
		rtti.Sig(nil, rtti.Word, rtti.RefAny),
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Strand.Run", Module: Module,
				Sig: rtti.Sig(nil, rtti.Word, rtti.RefAny)},
			Fn: func(closure any, args []any) any { return nil },
		}))
	if err != nil {
		return nil, err
	}
	s.RunEvent = run
	return s, nil
}

// Spawn creates a strand in the given address space and makes it runnable.
func (s *Scheduler) Spawn(name string, space uint64, step StepFunc) *Strand {
	st := &Strand{id: s.nextID.Add(1), name: name, space: space, sched: s,
		step: step, Locals: make(map[string]any)}
	st.idWord = st.id
	st.state.Store(int32(Ready))
	s.live.Add(1)
	s.enqueue(st, true)
	return st
}

// Simulator returns the scheduler's discrete-event simulator, or nil in
// real-time mode. Substrates use it for raw timers that must not be
// starved by strand scheduling.
func (s *Scheduler) Simulator() *vtime.Simulator { return s.sim }

// Switches reports the number of scheduling operations performed (each one
// raised Strand.Run).
func (s *Scheduler) Switches() int64 { return s.switches.Load() }

// Wakeup makes a blocked strand runnable. Waking a dead strand is ignored;
// waking a ready or running strand is a no-op. I/O wakeups pay the
// scheduler's WakeLatency before dispatch.
func (s *Scheduler) Wakeup(st *Strand) { s.wakeup(st, false) }

func (s *Scheduler) wakeup(st *Strand, prompt bool) {
	if st == nil || !st.casState(Blocked, Ready) {
		return
	}
	s.enqueue(st, prompt)
}

// WakeAfter schedules a wakeup d into the virtual future. It requires a
// simulator. Timer wakeups dispatch promptly (the timer interrupt runs the
// scheduler), bypassing WakeLatency.
func (s *Scheduler) WakeAfter(st *Strand, d vtime.Duration) error {
	if s.sim == nil {
		return ErrNoSimulator
	}
	s.sim.After(d, func() { s.wakeup(st, true) })
	return nil
}

// After schedules fn to run d into the virtual future on the simulator
// timeline. It requires a simulator; callers that tolerate real-time mode
// (where no virtual timers exist) should treat ErrNoSimulator as "timers
// disabled". The callback runs on the simulator goroutine, serialized with
// strand steps.
func (s *Scheduler) After(d vtime.Duration, fn func()) error {
	if s.sim == nil {
		return ErrNoSimulator
	}
	s.sim.After(d, fn)
	return nil
}

// Kill retires a strand immediately. The paper's user-space thread
// managers use this when an EPHEMERAL context-switch handler is
// terminated: "premature termination results in the termination of the
// user-space thread". Kill is safe to call from any goroutine — in
// real-time mode the EPHEMERAL watchdog that motivates it runs outside
// the scheduler.
func (s *Scheduler) Kill(st *Strand) {
	if st == nil || State(st.state.Swap(int32(Dead))) == Dead {
		return
	}
	s.live.Add(-1)
	s.mu.Lock()
	s.runq.Remove(func(q *Strand) bool { return q == st })
	s.mu.Unlock()
}

// enqueue appends to the run queue and, under a simulator, arranges for the
// scheduler to pump. Prompt enqueues (timer wakeups, fresh spawns) skip
// WakeLatency.
func (s *Scheduler) enqueue(st *Strand, prompt bool) {
	s.mu.Lock()
	wasEmpty := s.runq.Len() == 0
	s.runq.Push(st)
	pump := s.sim != nil && !s.pumping
	if pump {
		s.pumping = true
	}
	s.mu.Unlock()
	if pump {
		delay := vtime.Duration(0)
		if wasEmpty && !prompt {
			delay = s.WakeLatency
		}
		s.sim.After(delay, s.pump)
	}
}

func (s *Scheduler) tickFromSim() { s.tick(true) }

// tick performs one scheduling operation: pop the strand at the head of the
// queue, raise Strand.Run, dispatch the strand, and reinsert or retire it.
// It reports whether more runnable work remains.
//
// mu is taken twice. The first round pops the strand and, for a simulator
// tick (fromSim), clears the pump flag, so an enqueue during the step arms
// its own pump, WakeLatency included. The second round, after the step,
// makes the strand's state transition, requeues a yielded strand, reads
// whether the queue is non-empty and, for a simulator tick, arms a prompt
// pump if none is armed.
func (s *Scheduler) tick(fromSim bool) bool {
	s.mu.Lock()
	if fromSim {
		s.pumping = false
	}
	st, ok := s.runq.Pop()
	s.mu.Unlock()
	if !ok {
		return false
	}
	var status Status
	stepped := false
	if st.State() != Dead { // not killed while queued
		s.switches.Add(1)
		s.cpu.Charge(vtime.ContextSwitch)
		// Announce the scheduling operation. The raise cannot fail for
		// arity reasons; a handler-installed guard rejecting everything
		// would surface ErrNoHandler, which we tolerate: the intrinsic
		// may have been deregistered by an experiment.
		_, _ = s.RunEvent.Raise2(st.idWord, st)
		// The transition fails if a context-switch handler (e.g. a
		// terminated EPHEMERAL restore handler) killed the strand during
		// the raise, or a supervisory goroutine killed it between dequeue
		// and dispatch.
		if st.casState(Ready, Running) {
			status, stepped = st.step(st), true
		}
	}

	s.mu.Lock()
	if stepped {
		switch status {
		case Yield:
			// The transition fails only if the strand was killed
			// mid-step; a dead strand must not reenter the queue. Kill
			// removes a queued strand under mu, so it cannot miss one
			// pushed here.
			if st.casState(Running, Ready) {
				s.runq.Push(st)
			}
		case Block:
			st.casState(Running, Blocked)
		case Done:
			if State(st.state.Swap(int32(Dead))) != Dead {
				s.live.Add(-1)
			}
		}
	}
	more := s.runq.Len() > 0
	pump := fromSim && more && !s.pumping
	if pump {
		s.pumping = true
	}
	s.mu.Unlock()
	if pump {
		s.sim.After(0, s.pump)
	}
	return more
}

// moreRunnable reports whether the run queue is non-empty.
func (s *Scheduler) moreRunnable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runq.Len() > 0
}

// RunToCompletion drives the scheduler without a simulator until the run
// queue empties, for unmetered unit tests. It stops after limit ticks when
// limit > 0.
func (s *Scheduler) RunToCompletion(limit int) int {
	ticks := 0
	for s.tick(false) || s.moreRunnable() {
		ticks++
		if limit > 0 && ticks >= limit {
			break
		}
	}
	return ticks
}
