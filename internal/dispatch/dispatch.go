// Package dispatch implements the SPIN event dispatcher, the primary
// contribution of "Dynamic Binding for an Extensible System" (Pardyak &
// Bershad, OSDI 1996).
//
// Events are procedure signatures; raising an event is a conditional
// invocation of the handlers installed on it. The dispatcher provides:
//
//   - dynamic installation and removal of handlers, with deterministic
//     ordering constraints (First/Last/Before/After, §2.3);
//   - guards: side-effect-free predicates that filter handler invocations,
//     installable by the handler's installer and imposable by the event's
//     authority (§2.2, §2.5);
//   - closures passed to handlers and guards at invocation (§2.1);
//   - filters: handlers that take parameters by reference and rewrite the
//     arguments seen by later handlers (§2.3);
//   - result handlers, default handlers, and the no-handler exception
//     (§2.3 "Handling results");
//   - asynchronous events and handlers, and EPHEMERAL handler termination
//     (§2.6 "Denial of service");
//   - access control through authorities, authorizers, and imposed guards
//     (§2.5);
//   - installation-time typechecking against the rtti signatures (§2.4).
//
// Performance structure (§3): an event whose only binding is the unguarded
// intrinsic handler is dispatched as a direct procedure call, bypassing the
// dispatcher. Richer events execute a specialized dispatch plan generated
// by internal/codegen; installs regenerate the plan and publish it with a
// single atomic store, so raises never take the installation lock.
package dispatch

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"spin/internal/fault"
	"spin/internal/journal"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// Errors surfaced by the dispatcher. ErrNoHandler is the Go rendering of
// the paper's "runtime exception thrown at the point the event is raised"
// when no handler fires and no default handler is installed.
var (
	ErrNoHandler            = errors.New("dispatch: no handler fired for event")
	ErrAmbiguousResult      = errors.New("dispatch: multiple results without a result handler")
	ErrBadArity             = errors.New("dispatch: wrong number of raise arguments")
	ErrBadArgType           = errors.New("dispatch: raise argument has wrong type")
	ErrDuplicateEvent       = errors.New("dispatch: event already defined")
	ErrNotAuthority         = errors.New("dispatch: module is not the event's authority")
	ErrDenied               = errors.New("dispatch: operation denied by the event's authorizer")
	ErrAsyncByRef           = errors.New("dispatch: asynchronous execution illegal with by-reference arguments")
	ErrAsyncNeedsDefault    = errors.New("dispatch: asynchronous raise of a result event requires a default handler")
	ErrNotEphemeralProc     = errors.New("dispatch: handler procedure is not declared EPHEMERAL")
	ErrNotInstalled         = errors.New("dispatch: binding is not installed")
	ErrOrderRef             = errors.New("dispatch: ordering constraint references a binding on a different event")
	ErrNilHandler           = errors.New("dispatch: handler has no implementation")
	ErrGuardMutatedArgs     = errors.New("dispatch: FUNCTIONAL guard mutated its arguments")
	ErrIntrinsicNotDeferred = errors.New("dispatch: event already has an intrinsic handler")
	ErrModuleQuarantined    = errors.New("dispatch: module is quarantined")
)

// Dispatcher oversees event-based communication for one kernel instance.
// All handler-list manipulation serializes on the dispatcher; event raises
// are lock-free against the published plans.
type Dispatcher struct {
	mu     sync.Mutex
	events map[string]*Event

	cpu     *vtime.CPU
	sim     *vtime.Simulator
	purity  bool
	spawner func(fn func())
	quota   quotas
	tracer  *trace.Tracer

	// admit is the overload controller: always present, since its worker
	// pool backs the default spawner; admission queues and degradation are
	// configured with WithAdmission. pooledSpawn records that the default
	// (pool-backed) spawner is in use, so async watchdogs know abandoning
	// a stuck invocation must also raise the pool's capacity.
	admit       *admitCtl
	admitCfg    *AdmissionConfig
	pooledSpawn bool

	// faults is the fault controller: always present so every recovered
	// panic is recorded, enforcing (quarantine, deadlines, budgets) only
	// when a policy was installed with WithFaultPolicy.
	faults      *faultCtl
	faultPolicy *fault.Policy

	// jrnl is the lifecycle journal (WithJournal); nil dispatchers journal
	// nothing and compile plans without a journal field. jseq issues the
	// journal binding IDs install records define; jmuted suppresses
	// lifecycle emission while boot replay re-drives history through the
	// normal control plane (see journalctl.go).
	jrnl   *journal.Journal
	jseq   atomic.Uint64
	jmuted atomic.Bool
}

// Option configures a Dispatcher.
type Option func(*Dispatcher)

// WithCPU meters all dispatch activity on cpu, enabling the virtual-time
// benchmarks. A nil cpu leaves the dispatcher unmetered.
func WithCPU(cpu *vtime.CPU) Option {
	return func(d *Dispatcher) { d.cpu = cpu }
}

// WithSimulator runs asynchronous handlers and events on the discrete-event
// simulator instead of real goroutines, keeping metered runs deterministic.
func WithSimulator(sim *vtime.Simulator) Option {
	return func(d *Dispatcher) { d.sim = sim }
}

// WithPurityChecking makes the dispatcher verify, on every evaluation, that
// out-of-line FUNCTIONAL guards did not mutate their arguments; a raise
// whose guard did fails with ErrGuardMutatedArgs. This is the runtime
// stand-in for Modula-3's compiler-verified FUNCTIONAL attribute; it is
// meant for testing, not production dispatch.
func WithPurityChecking() Option {
	return func(d *Dispatcher) { d.purity = true }
}

// WithSpawner overrides how real-mode asynchronous invocations obtain a
// thread of control. The default runs each on the dispatcher's shared
// size-capped worker pool, which bounds how many asynchronous invocations
// run at once (excess work queues; nothing is shed) — an escape hatch for
// callers who need the old unbounded behaviour is
// WithSpawner(func(fn func()) { go fn() }). Admission-governed
// invocations (WithAdmission, Event.SetAdmission) always drain on the
// pool; this option governs only unqueued spawns.
func WithSpawner(spawn func(fn func())) Option {
	return func(d *Dispatcher) { d.spawner = spawn }
}

// WithTracer enables dispatch tracing for every event defined on the
// dispatcher: each event's plan is compiled with trace recording steps
// targeting t, and raises are sampled at t's configured rate. Individual
// events can still opt out (or a tracerless dispatcher's events opt in)
// with Event.Trace.
func WithTracer(t *trace.Tracer) Option {
	return func(d *Dispatcher) { d.tracer = t }
}

// Tracer returns the dispatcher-wide tracer, or nil.
func (d *Dispatcher) Tracer() *trace.Tracer { return d.tracer }

// WithFaultPolicy enables fault enforcement: every event's dispatch plan
// is compiled with fault capture, recovered panics and deadline overruns
// are charged against the policy's budgets, and bindings that exhaust a
// budget are quarantined — compiled out of their event's plan, re-admitted
// on probation after exponential backoff (see internal/fault and DESIGN.md
// decision 12). Without this option the dispatcher still records faults
// from its supervised paths (EPHEMERAL and asynchronous handlers, the
// purity monitor's comparisons) into a record-only ledger, but never
// quarantines, and compiles recovery barriers into synchronous dispatch
// only under WithPurityChecking, whose monitor rejects a raise through
// them while every other panic goes on to the raiser.
func WithFaultPolicy(p fault.Policy) Option {
	return func(d *Dispatcher) { d.faultPolicy = &p }
}

// New creates a dispatcher.
func New(opts ...Option) *Dispatcher {
	d := &Dispatcher{events: make(map[string]*Event)}
	for _, o := range opts {
		o(d)
	}
	acfg := AdmissionConfig{}
	if d.admitCfg != nil {
		acfg = *d.admitCfg
	}
	d.admit = newAdmitCtl(d, acfg)
	if d.spawner == nil {
		d.spawner = d.admit.pool.Go
		d.pooledSpawn = true
	}
	pol := fault.Policy{}
	if d.faultPolicy != nil {
		pol = *d.faultPolicy
	}
	d.faults = newFaultCtl(d, pol)
	return d
}

// FaultLedger returns the dispatcher's fault ledger. It always exists;
// without WithFaultPolicy it records faults but never quarantines.
func (d *Dispatcher) FaultLedger() *fault.Ledger { return d.faults.ledger }

// CPU returns the dispatcher's meter (nil when unmetered).
func (d *Dispatcher) CPU() *vtime.CPU { return d.cpu }

// Simulator returns the attached simulator, or nil.
func (d *Dispatcher) Simulator() *vtime.Simulator { return d.sim }

// Lookup returns the named event, if defined.
func (d *Dispatcher) Lookup(name string) (*Event, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.events[name]
	return e, ok
}

// Events returns a snapshot of all defined events, in no particular order.
func (d *Dispatcher) Events() []*Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Event, 0, len(d.events))
	for _, e := range d.events {
		out = append(out, e)
	}
	return out
}

// spawn runs fn on a separate thread of control, charging the raiser the
// thread-creation latency the paper reports for asynchronous events
// (38-90us depending on the number of arguments). In simulator mode the
// invocation is scheduled as a discrete event so metered runs stay
// deterministic and single-threaded; otherwise a goroutine is used.
func (d *Dispatcher) spawn(arity int, fn func()) {
	// Thread creation is kernel work, not dispatch overhead: attribute
	// it to the kernel account so the §3.2 events share stays honest.
	d.cpu.ChargeTo(vtime.AccountKernel, vtime.ThreadSpawnBase)
	d.cpu.ChargeNTo(vtime.AccountKernel, vtime.ThreadSpawnArg, arity)
	if d.sim != nil {
		d.sim.After(0, fn)
		return
	}
	d.spawner(fn)
}

// afterFunc schedules fn after dur: as a discrete event in simulator mode
// (deterministic; fires when the simulation reaches that time), on a
// wall-clock timer otherwise. Quarantine backoff and probation timers run
// through here so fault recovery works identically in both modes.
func (d *Dispatcher) afterFunc(dur time.Duration, fn func()) {
	if d.sim != nil {
		d.sim.After(vtime.Duration(dur), fn)
		return
	}
	time.AfterFunc(dur, fn)
}

// runEphemeral supervises an EPHEMERAL handler invocation (§2.6 "Runaway
// handlers"). In real-time mode the handler runs on its own goroutine with
// a watchdog; if the deadline passes, the invocation is abandoned — the
// dispatcher returns to the raiser, the handler's eventual result is
// discarded, the invocation's context is cancelled so a cooperative handler
// can stop early, and the binding's termination counter advances. A
// panicking handler is likewise treated as terminated. Go cannot destroy a
// thread, so abandonment-plus-cancellation substitutes for SPIN's
// termination; see DESIGN.md. Panics and deadline overruns are recorded in
// the fault ledger and, under an enforcing policy, charged against the
// binding's budget.
//
// In simulator mode handler bodies execute instantly in wall-clock terms,
// so the watchdog cannot fire; the supervisor still recovers panics.
// It is every plan's RunEphemeral supervisor: tag is the step's Binding,
// which names its dispatcher and deadline.
func runEphemeral(tag any, invoke func(context.Context) any) (any, bool) {
	b := tag.(*Binding)
	d, deadline := b.event.d, b.deadline
	if deadline <= 0 {
		deadline = DefaultEphemeralDeadline
	}
	if d.sim != nil {
		res, ok, _ := d.watchdog(b, 0, invoke, nil)
		return res, ok
	}
	type reply struct {
		res any
		ok  bool
	}
	// Exactly one reply arrives: the watchdog's, or the invocation's when
	// it returns before the deadline.
	done := make(chan reply, 1)
	go func() {
		if res, ok, abandoned := d.watchdog(b, deadline, invoke, func() { done <- reply{} }); !abandoned {
			done <- reply{res, ok}
		}
	}()
	r := <-done
	return r.res, r.ok
}

// spawnHandler supervises one asynchronous handler invocation: the handler
// runs on its own thread of control (via spawn) under the watchdog, so a
// panicking asynchronous handler is recorded as a fault instead of
// crashing the process. When the binding carries a deadline (WithDeadline)
// and the dispatcher runs in real time, the watchdog cancels the
// invocation's context at the deadline and records a deadline fault; as
// with EPHEMERAL handlers, cancellation is cooperative. On the pooled
// spawner an abandoned invocation hands its squatted worker's capacity
// back (Abandon) so stuck invocations cannot starve the pool, and its
// eventual return takes it again (Reclaim).
func (d *Dispatcher) spawnHandler(tag any, arity int, invoke func(context.Context) any) {
	b, _ := tag.(*Binding)
	var deadline time.Duration
	if d.sim == nil && b != nil {
		deadline = b.deadline
	}
	var abandon func()
	if d.pooledSpawn {
		abandon = d.admit.pool.Abandon
	}
	d.spawn(arity, func() {
		if _, _, abandoned := d.watchdog(b, deadline, invoke, abandon); abandoned && d.pooledSpawn {
			d.admit.pool.Reclaim()
		}
	})
}

// watchdog runs one supervised invocation of b's handler — EPHEMERAL,
// asynchronous, or admitted — behind a recovery barrier and, when deadline
// is positive, a wall-clock watchdog that cancels the invocation's context
// at the deadline. state is the handshake: 0 running, 1 completed, 2
// abandoned. Exactly one side wins its CAS, so every invocation is
// accounted once: by the watchdog (a termination, the terminated flag, a
// deadline fault, then abandon, if non-nil) or by the return (a panic is a
// termination and a panic fault). An invocation that returns after the
// watchdog abandoned it reports abandoned and is not accounted again, even
// if it panicked.
func (d *Dispatcher) watchdog(b *Binding, deadline time.Duration, invoke func(context.Context) any, abandon func()) (res any, ok, abandoned bool) {
	ctx := context.Background()
	var state atomic.Int32
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		timer := time.AfterFunc(deadline, func() {
			if !state.CompareAndSwap(0, 2) {
				return
			}
			if b != nil {
				b.terminations.Add(1)
				b.terminated.Store(true)
			}
			d.faults.deadline(b, deadline)
			cancel()
			if abandon != nil {
				abandon()
			}
		})
		defer timer.Stop()
	}
	res, ok, val, stack := runProtected(ctx, invoke)
	if !state.CompareAndSwap(0, 1) {
		return nil, false, true // already accounted as a deadline termination
	}
	if !ok {
		if b != nil {
			b.terminations.Add(1)
		}
		d.faults.handlerPanic(b, val, stack)
	}
	return res, ok, false
}

// runProtected runs invoke, converting a panic into a termination and
// handing back the panic value and stack for the fault ledger.
func runProtected(ctx context.Context, invoke func(context.Context) any) (res any, ok bool, val any, stack []byte) {
	defer func() {
		if ok {
			return
		}
		res = nil
		if val = recover(); val != nil {
			stack = debug.Stack()
		}
	}()
	res = invoke(ctx)
	ok = true
	return
}
