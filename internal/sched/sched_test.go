package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spin/internal/dispatch"
	"spin/internal/rtti"
	"spin/internal/vtime"
)

func newRig(t *testing.T, metered bool) (*dispatch.Dispatcher, *Scheduler, *vtime.Simulator, *vtime.CPU) {
	t.Helper()
	var cpu *vtime.CPU
	var sim *vtime.Simulator
	var opts []dispatch.Option
	if metered {
		var clock vtime.Clock
		cpu = vtime.NewCPU(&clock, vtime.AlphaModel())
		sim = vtime.NewSimulator(&clock)
		opts = append(opts, dispatch.WithCPU(cpu), dispatch.WithSimulator(sim))
	}
	d := dispatch.New(opts...)
	s, err := New(d, cpu, sim)
	if err != nil {
		t.Fatal(err)
	}
	return d, s, sim, cpu
}

func TestSpawnAndRun(t *testing.T) {
	_, s, _, _ := newRig(t, false)
	steps := 0
	st := s.Spawn("worker", 1, func(st *Strand) Status {
		steps++
		if steps == 3 {
			return Done
		}
		return Yield
	})
	if st.State() != Ready || st.Name() != "worker" || st.Space() != 1 || st.ID() == 0 {
		t.Fatalf("strand = %v", st)
	}
	s.RunToCompletion(0)
	if steps != 3 {
		t.Fatalf("steps = %d", steps)
	}
	if st.State() != Dead || s.Live() != 0 {
		t.Fatalf("state=%v live=%d", st.State(), s.Live())
	}
}

func TestRoundRobinFairness(t *testing.T) {
	_, s, _, _ := newRig(t, false)
	var trace []string
	mk := func(name string, n int) StepFunc {
		count := 0
		return func(st *Strand) Status {
			trace = append(trace, name)
			count++
			if count == n {
				return Done
			}
			return Yield
		}
	}
	s.Spawn("a", 0, mk("a", 2))
	s.Spawn("b", 0, mk("b", 2))
	s.RunToCompletion(0)
	want := []string{"a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestStrandRunRaisedPerSwitch(t *testing.T) {
	// Table 3: Strand.Run occurs during each scheduling operation.
	_, s, _, _ := newRig(t, false)
	s.Spawn("w", 0, func(st *Strand) Status {
		if s.Switches() >= 5 {
			return Done
		}
		return Yield
	})
	s.RunToCompletion(0)
	stats := s.RunEvent.Stats()
	if stats.Raised != s.Switches() || stats.Raised != 5 {
		t.Fatalf("raised=%d switches=%d", stats.Raised, s.Switches())
	}
}

func TestBlockAndWakeup(t *testing.T) {
	_, s, _, _ := newRig(t, false)
	phase := 0
	st := s.Spawn("sleeper", 0, func(st *Strand) Status {
		phase++
		if phase == 1 {
			return Block
		}
		return Done
	})
	s.RunToCompletion(0)
	if st.State() != Blocked || phase != 1 {
		t.Fatalf("state=%v phase=%d", st.State(), phase)
	}
	s.Wakeup(st)
	s.RunToCompletion(0)
	if st.State() != Dead || phase != 2 {
		t.Fatalf("state=%v phase=%d", st.State(), phase)
	}
	// Waking a dead strand is a no-op.
	s.Wakeup(st)
	if st.State() != Dead || s.QueueLen() != 0 {
		t.Fatal("dead strand rescheduled")
	}
}

func TestWakeAfterUsesSimulator(t *testing.T) {
	_, s, sim, cpu := newRig(t, true)
	woke := false
	st := s.Spawn("timer", 0, func(st *Strand) Status {
		if woke {
			return Done
		}
		return Block
	})
	sim.Run(0)
	if st.State() != Blocked {
		t.Fatalf("state = %v", st.State())
	}
	woke = true
	if err := s.WakeAfter(st, vtime.Micros(500)); err != nil {
		t.Fatal(err)
	}
	sim.Run(0)
	if st.State() != Dead {
		t.Fatalf("state = %v", st.State())
	}
	if got := vtime.InMicros(vtime.Duration(cpu.Now())); got < 500 {
		t.Fatalf("clock = %.1fus, want >= 500", got)
	}
}

func TestWakeAfterWithoutSimulator(t *testing.T) {
	_, s, _, _ := newRig(t, false)
	st := s.Spawn("x", 0, func(st *Strand) Status { return Block })
	if err := s.WakeAfter(st, time.Millisecond); err != ErrNoSimulator {
		t.Fatalf("err = %v", err)
	}
}

func TestKill(t *testing.T) {
	_, s, _, _ := newRig(t, false)
	ran := 0
	victim := s.Spawn("victim", 0, func(st *Strand) Status { ran++; return Yield })
	s.Kill(victim)
	s.RunToCompletion(0)
	if ran != 0 || victim.State() != Dead || s.Live() != 0 {
		t.Fatalf("ran=%d state=%v", ran, victim.State())
	}
	s.Kill(victim) // idempotent
	s.Kill(nil)
}

func TestContextSwitchHandlerSeesStrand(t *testing.T) {
	// User-space thread managers install handlers on Strand.Run to save
	// and restore state.
	_, s, _, _ := newRig(t, false)
	var seen []uint64
	proc := &rtti.Proc{Name: "Threads.Switch", Module: rtti.NewModule("Threads"),
		Sig: rtti.Sig(nil, rtti.Word, rtti.RefAny)}
	_, err := s.RunEvent.Install(dispatch.Handler{Proc: proc, Fn: func(clo any, args []any) any {
		seen = append(seen, args[0].(uint64))
		if _, ok := args[1].(*Strand); !ok {
			t.Errorf("second arg is %T", args[1])
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Spawn("w", 0, func(st *Strand) Status { return Done })
	s.RunToCompletion(0)
	if len(seen) != 1 || seen[0] != st.ID() {
		t.Fatalf("seen = %v", seen)
	}
}

func TestEphemeralSwitchHandlerTerminationKillsStrand(t *testing.T) {
	// §2.6: extensions managing user-space threads rely on EPHEMERAL
	// handlers during context switches; premature termination terminates
	// the user-space thread.
	d, s, _, _ := newRig(t, false)
	_ = d // dispatcher already wired
	threads := rtti.NewModule("Threads")
	release := make(chan struct{})
	defer close(release)
	proc := &rtti.Proc{Name: "Threads.Restore", Module: threads,
		Sig: rtti.Sig(nil, rtti.Word, rtti.RefAny), Ephemeral: true}
	b, err := s.RunEvent.Install(dispatch.Handler{Proc: proc, Fn: func(clo any, args []any) any {
		<-release // runaway restore handler
		return nil
	}}, dispatch.Ephemeral(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	st := s.Spawn("user-thread", 0, func(st *Strand) Status { ran++; return Done })
	// Supervisory policy: when the restore handler is terminated, the
	// user-space thread it serves is killed.
	go func() {
		for !b.Terminated() {
			time.Sleep(time.Millisecond)
		}
		s.Kill(st)
	}()
	s.RunToCompletion(0)
	if b.Terminations() == 0 {
		t.Fatal("restore handler was not terminated")
	}
}

func TestSchedulerChargesContextSwitch(t *testing.T) {
	_, s, sim, cpu := newRig(t, true)
	n := 0
	s.Spawn("w", 0, func(st *Strand) Status {
		n++
		if n == 10 {
			return Done
		}
		return Yield
	})
	sim.Run(0)
	perSwitch := vtime.InMicros(vtime.Duration(cpu.Now())) / 10
	// Each switch charges ContextSwitch (12us) plus the Strand.Run raise
	// (a direct call, 0.1+0.02us with two args).
	if perSwitch < 12 || perSwitch > 13 {
		t.Fatalf("per-switch cost = %.2fus", perSwitch)
	}
}

func TestStrandStringAndStates(t *testing.T) {
	_, s, _, _ := newRig(t, false)
	st := s.Spawn("w", 0, func(st *Strand) Status { return Block })
	if st.String() == "" {
		t.Fatal("empty String")
	}
	for _, state := range []State{Ready, Running, Blocked, Dead, State(99)} {
		if state.String() == "" {
			t.Fatal("empty state name")
		}
	}
	if st.RTTIType() != StrandType {
		t.Fatal("RTTIType wrong")
	}
}

// The run queue used to pop with runq = runq[1:], which kept every
// dispatched strand reachable from the backing array until append outgrew
// it. A retired strand must be garbage while the queue, still holding
// others, lives on.
func TestRunQueueReleasesPoppedStrand(t *testing.T) {
	_, s, _, _ := newRig(t, false)
	var finalized atomic.Bool
	func() {
		st := s.Spawn("short-lived", 0, func(*Strand) Status { return Done })
		runtime.SetFinalizer(st, func(*Strand) { finalized.Store(true) })
	}()
	s.Spawn("parked", 0, func(*Strand) Status { return Block })
	s.Spawn("queued", 0, func(*Strand) Status { return Block })
	s.tick(false) // retires the first strand; two stay queued
	if s.QueueLen() != 2 || s.Live() != 2 {
		t.Fatalf("queue %d, live %d after one tick", s.QueueLen(), s.Live())
	}
	for i := 0; i < 200 && !finalized.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	runtime.KeepAlive(s)
	if !finalized.Load() {
		t.Fatal("the run queue keeps a retired strand reachable")
	}
}

// Waking a strand and dispatching it through the simulator allocates
// nothing: the pump callback and the strand's id word exist already, the
// run queue reuses its buffer, and Strand.Run is raised through a pooled
// argument frame. 10 000 rounds, so a creeping queue would show.
func TestWakeupDispatchZeroAlloc(t *testing.T) {
	var clock vtime.Clock
	sim := vtime.NewSimulator(&clock)
	s, err := New(dispatch.New(dispatch.WithSimulator(sim)), nil, sim)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	st := s.Spawn("waiter", 0, func(*Strand) Status { steps++; return Block })
	sim.Run(0)
	allocs := testing.AllocsPerRun(10000, func() {
		s.Wakeup(st)
		sim.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("Wakeup + dispatch allocates %.2f times per round", allocs)
	}
	if steps != 1+10001 || s.Switches() != int64(steps) {
		t.Fatalf("%d steps, %d switches", steps, s.Switches())
	}
}

// One simulator tick of a lone strand, for each status its step can report
// and each point at which it can be killed: the strand ends in the right
// state, counted live or not, queued only when it yielded alive, and the
// tick leaves exactly one pump pending exactly when it is runnable.
func TestTickTransitions(t *testing.T) {
	type kill string
	const (
		notKilled    kill = "alive"
		killedInRun  kill = "killed in Strand.Run"
		killedInStep kill = "killed in step"
	)
	type outcome struct {
		state  State
		live   int
		queued bool
	}
	killedOutcome := outcome{Dead, 0, false}
	for _, tc := range []struct {
		status Status
		kill   kill
		want   outcome
	}{
		{Yield, notKilled, outcome{Ready, 1, true}},
		{Block, notKilled, outcome{Blocked, 1, false}},
		{Done, notKilled, outcome{Dead, 0, false}},
		{Yield, killedInRun, killedOutcome},
		{Block, killedInRun, killedOutcome},
		{Done, killedInRun, killedOutcome},
		{Yield, killedInStep, killedOutcome},
		{Block, killedInStep, killedOutcome},
		{Done, killedInStep, killedOutcome},
	} {
		name := []string{Yield: "yield", Block: "block", Done: "done"}[tc.status]
		t.Run(name+", "+string(tc.kill), func(t *testing.T) {
			_, s, sim, _ := newRig(t, true)
			if tc.kill == killedInRun {
				proc := &rtti.Proc{Name: "Threads.Kill", Module: rtti.NewModule("Threads"),
					Sig: rtti.Sig(nil, rtti.Word, rtti.RefAny)}
				_, err := s.RunEvent.Install(dispatch.Handler{Proc: proc, Fn: func(clo any, args []any) any {
					s.Kill(args[1].(*Strand))
					return nil
				}})
				if err != nil {
					t.Fatal(err)
				}
			}
			steps := 0
			st := s.Spawn("w", 0, func(st *Strand) Status {
				steps++
				if tc.kill == killedInStep {
					s.Kill(st)
				}
				return tc.status
			})
			if sim.Pending() != 1 {
				t.Fatalf("%d events pending after Spawn, want the one pump", sim.Pending())
			}
			if !sim.Step() {
				t.Fatal("no tick ran")
			}
			wantSteps := 1
			if tc.kill == killedInRun {
				wantSteps = 0
			}
			if steps != wantSteps {
				t.Fatalf("%d steps, want %d", steps, wantSteps)
			}
			got := outcome{st.State(), s.Live(), s.QueueLen() == 1}
			if got != tc.want {
				t.Fatalf("after the tick: %+v, want %+v", got, tc.want)
			}
			wantPending := 0
			if got.queued {
				wantPending = 1
			}
			if sim.Pending() != wantPending {
				t.Fatalf("%d events pending after the tick, want %d", sim.Pending(), wantPending)
			}
		})
	}
}

// A wakeup from inside a strand step arms its own pump and pays
// WakeLatency, as one from outside does: the tick clears the pump flag
// before the step and, finding a pump armed after it, arms no prompt one.
func TestWakeupDuringStepPaysWakeLatency(t *testing.T) {
	_, s, sim, _ := newRig(t, true)
	s.WakeLatency = vtime.Micros(50)
	sleeps := 0
	sleeper := s.Spawn("sleeper", 0, func(*Strand) Status { sleeps++; return Block })
	sim.Run(0)
	var wokeAt vtime.Time
	s.Spawn("waker", 0, func(*Strand) Status {
		wokeAt = sim.Clock().Now()
		s.Wakeup(sleeper)
		return Done
	})
	if !sim.Step() || sleeper.State() != Ready || sim.Pending() != 1 {
		t.Fatalf("after the waker's tick: sleeper %v, %d events pending", sleeper.State(), sim.Pending())
	}
	if n := sim.RunUntil(wokeAt.Add(s.WakeLatency - 1)); n != 0 || sleeps != 1 {
		t.Fatalf("the woken strand was dispatched before its WakeLatency (%d events, %d steps)", n, sleeps)
	}
	sim.Run(0)
	if sleeps != 2 || sleeper.State() != Blocked {
		t.Fatalf("%d steps, state %v", sleeps, sleeper.State())
	}
}

// Live reports the number of non-dead strands.
func (s *Scheduler) Live() int { return int(s.live.Load()) }

// QueueLen reports the run-queue length.
func (s *Scheduler) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runq.Len()
}
