package dispatch

import (
	"runtime/debug"
	"sync/atomic"
	"time"

	"spin/internal/codegen"
	"spin/internal/fault"
	"spin/internal/rtti"
)

// HandlerFn is the handler calling convention: the installation closure
// (nil when none) and the raise arguments. Void handlers return nil.
type HandlerFn = codegen.HandlerFn

// CtxHandlerFn is the cancellation-aware handler calling convention: the
// context is cancelled when a supervising watchdog (EPHEMERAL or
// asynchronous deadline) abandons the invocation, so a cooperative handler
// can stop early. For synchronous, unsupervised invocations the context is
// context.Background().
type CtxHandlerFn = codegen.CtxHandlerFn

// GuardFn is the guard calling convention; guards must be side-effect free.
type GuardFn = codegen.GuardFn

// ResultFn folds handler results, called separately for each result
// produced during a raise (§2.3 "Handling results").
type ResultFn = codegen.ResultFn

// Handler describes a procedure offered as an event handler: its rtti
// descriptor (signature, module, attributes), its implementation, and an
// optional inlinable body for the code generator.
type Handler struct {
	// Proc is the procedure descriptor used for installation-time
	// typechecking and authority decisions. Required.
	Proc *rtti.Proc
	// Fn is the out-of-line implementation. Required unless Inline or
	// CtxFn is set.
	Fn HandlerFn
	// CtxFn is a cancellation-aware implementation, preferred over Fn
	// when both are set. Handlers that may run under a deadline watchdog
	// (EPHEMERAL or asynchronous with WithDeadline) should use CtxFn and
	// honor context cancellation.
	CtxFn CtxHandlerFn
	// Inline, when non-nil, allows the code generator to inline the
	// handler body into the dispatch routine.
	Inline *codegen.Body
}

// Guard pairs a predicate with its descriptor. Exactly one of Pred and Fn
// drives evaluation: a Pred is declaratively FUNCTIONAL and inlinable; an
// Fn is opaque and must carry a FUNCTIONAL Proc descriptor.
type Guard struct {
	// Proc describes an out-of-line guard; it must be FUNCTIONAL with a
	// BOOLEAN result (§2.3 "Evaluating guards"). Ignored for Pred
	// guards, which are functional by construction.
	Proc *rtti.Proc
	// Fn is the out-of-line predicate.
	Fn GuardFn
	// Pred is an inlinable predicate.
	Pred *codegen.Pred
	// Closure is passed as the guard's leading argument when non-nil.
	Closure any
}

// OrderKind enumerates the paper's handler ordering constraints (§2.3
// "Ordering handlers").
type OrderKind int

const (
	// Unordered handlers append after previously installed handlers.
	Unordered OrderKind = iota
	// OrderFirst places the handler at the beginning of the handler list
	// at the time it is installed.
	OrderFirst
	// OrderLast places the handler at the end of the handler list at the
	// time it is installed.
	OrderLast
	// OrderBefore places the handler immediately before Ref.
	OrderBefore
	// OrderAfter places the handler immediately after Ref.
	OrderAfter
)

func (k OrderKind) String() string {
	switch k {
	case Unordered:
		return "Unordered"
	case OrderFirst:
		return "First"
	case OrderLast:
		return "Last"
	case OrderBefore:
		return "Before"
	case OrderAfter:
		return "After"
	}
	return "Order(?)"
}

// Order is an ordering constraint, optionally relative to another binding.
type Order struct {
	Kind OrderKind
	Ref  *Binding
}

// Binding represents one installed handler on one event. The same handler
// may be installed many times, on the same or different events; each
// installation is an independent Binding (§2.1).
type Binding struct {
	event   *Event
	handler Handler
	closure any
	guards  []Guard // installer-supplied guards
	imposed []Guard // authority-imposed guards (§2.5)
	order   Order

	async      bool
	ephemeral  bool
	deadline   time.Duration // EPHEMERAL or async watchdog deadline
	filter     bool
	intrinsic  bool
	isDefault  bool
	credential any
	// priority is the binding's degradation priority class: 0 (the
	// default) is essential and never disabled; higher numbers are more
	// optional and are disabled first as the overload controller steps
	// through its degradation levels.
	priority int

	installed bool
	// pos is the binding's position in its event's handler list while it
	// is on it: every list edit renumbers the bindings it shifts (txn.moved),
	// and Position and Before/After inserts read it. Guarded by the event's
	// mutex like installed.
	pos int
	// lowered caches compile's result: the code generator's view of the
	// binding depends only on install-time fields and imposed, so a
	// recompile of the event re-lowers only the bindings whose imposed
	// guards changed since the last one (setImposed drops the cache).
	// Guarded by the event's mutex like installed.
	lowered *codegen.Binding
	// journalID is the binding's identity in the lifecycle journal,
	// assigned by the install record that defined it (or adopted from the
	// replayed record at boot). Zero on unjournaled dispatchers. Guarded
	// by the event's mutex like installed.
	journalID uint64
	// quarantined marks a binding compiled out of its event's plan by the
	// fault controller; recompile skips it until probation re-admits it.
	// Flipped only inside a commit (txn.quarantine, txn.readmit); atomic
	// because Quarantined reads it without the event's mutex.
	quarantined atomic.Bool
	// degraded marks a binding compiled out of its event's plan by the
	// overload controller (its priority class is disabled at the current
	// degradation level). Flipped only inside a commit, read lock-free by
	// Degraded, like quarantined.
	degraded     atomic.Bool
	terminations atomic.Int64
	terminated   atomic.Bool
}

// Event returns the event this binding is installed on.
func (b *Binding) Event() *Event { return b.event }

// Handler returns the binding's handler: descriptor, implementation, and
// inline body. Immutable after installation.
func (b *Binding) Handler() Handler { return b.handler }

// Closure returns the installation closure (nil when none was attached).
func (b *Binding) Closure() any { return b.closure }

// Guards returns a snapshot of the installer-supplied guards.
func (b *Binding) Guards() []Guard {
	b.event.mu.Lock()
	defer b.event.mu.Unlock()
	return append([]Guard(nil), b.guards...)
}

// Deadline returns the EPHEMERAL or asynchronous watchdog deadline (zero
// when the installation carries none).
func (b *Binding) Deadline() time.Duration { return b.deadline }

// HandlerName returns the handler procedure's qualified name.
func (b *Binding) HandlerName() string {
	if b.handler.Proc == nil {
		return "<anonymous>"
	}
	return b.handler.Proc.Name
}

// Installer returns the module that offered the handler (the handler
// procedure's defining module).
func (b *Binding) Installer() *rtti.Module {
	if b.handler.Proc == nil {
		return nil
	}
	return b.handler.Proc.Module
}

// Async reports whether the handler executes asynchronously.
func (b *Binding) Async() bool { return b.async }

// Ephemeral reports whether the handler invited termination.
func (b *Binding) Ephemeral() bool { return b.ephemeral }

// Filter reports whether the handler was installed as a filter.
func (b *Binding) Filter() bool { return b.filter }

// Terminations reports how many invocations were terminated (EPHEMERAL
// deadline overruns and panics).
func (b *Binding) Terminations() int64 { return b.terminations.Load() }

// Terminated reports whether a watchdog termination has occurred; a
// cooperative EPHEMERAL handler may poll it to stop early.
func (b *Binding) Terminated() bool { return b.terminated.Load() }

// Quarantined reports whether the fault controller has compiled the
// binding out of its event's dispatch plan.
func (b *Binding) Quarantined() bool { return b.quarantined.Load() }

// Priority returns the binding's degradation priority class (0 =
// essential).
func (b *Binding) Priority() int { return b.priority }

// FaultState returns the binding's state in the dispatcher's fault ledger
// (Healthy for a binding that has never exhausted a budget).
func (b *Binding) FaultState() fault.State {
	return b.event.d.faults.ledger.State(b)
}

// Installed reports whether the binding is currently on its event's
// handler list.
func (b *Binding) Installed() bool {
	b.event.mu.Lock()
	defer b.event.mu.Unlock()
	return b.installed
}

// Order returns the binding's current ordering constraint.
func (b *Binding) Order() Order {
	b.event.mu.Lock()
	defer b.event.mu.Unlock()
	return b.order
}

// setImposed replaces the authority-imposed guard list and drops the
// lowered form that embedded the old one. Caller holds the event lock.
func (b *Binding) setImposed(gs []Guard) {
	b.imposed = gs
	b.lowered = nil
}

// compile converts the binding to the code generator's representation,
// which the generator treats as immutable, so one lowering serves every
// plan compiled until the imposed guards change. Caller holds the event
// lock.
func (b *Binding) compile(d *Dispatcher) *codegen.Binding {
	if b.lowered != nil {
		return b.lowered
	}
	cb := &codegen.Binding{
		Fn:        b.handler.Fn,
		CtxFn:     b.handler.CtxFn,
		Closure:   b.closure,
		Inline:    b.handler.Inline,
		Async:     b.async,
		Ephemeral: b.ephemeral,
		Filter:    b.filter,
		Tag:       b,
		Name:      b.HandlerName(),
	}
	if n := b.countGuards(); n > 0 {
		cb.Guards = make([]codegen.Guard, 0, n)
	}
	for _, g := range b.guards {
		cb.Guards = append(cb.Guards, d.compileGuard(b, g))
	}
	for _, g := range b.imposed {
		cb.Guards = append(cb.Guards, d.compileGuard(b, g))
	}
	b.lowered = cb
	return cb
}

// compileGuard lowers one guard, wrapping out-of-line guards with the
// purity monitor when enabled.
func (d *Dispatcher) compileGuard(b *Binding, g Guard) codegen.Guard {
	cg := codegen.Guard{Closure: g.Closure, Pred: g.Pred}
	if g.Pred != nil {
		return cg
	}
	fn := g.Fn
	if d.purity {
		inner := fn
		fn = func(closure any, args []any) bool {
			snap := make([]any, len(args))
			copy(snap, args)
			r := inner(closure, args)
			for i := range snap {
				if !d.looselyEqual(b, snap[i], args[i]) {
					panic(ErrGuardMutatedArgs)
				}
			}
			return r
		}
	}
	cg.Fn = fn
	return cg
}

// looselyEqual compares two argument values, treating uncomparable values
// as equal (in-place mutation through a shared reference is invisible to a
// shallow snapshot either way). A recovered comparison panic is recorded
// in the fault ledger as an observational KindCompare record — not charged
// against any budget — instead of vanishing silently.
func (d *Dispatcher) looselyEqual(b *Binding, x, y any) (eq bool) {
	defer func() {
		if v := recover(); v != nil {
			eq = true
			r := fault.Record{
				Kind:   fault.KindCompare,
				Origin: fault.OriginGuard,
				Value:  v,
				Stack:  debug.Stack(),
			}
			if b != nil {
				r.Event = b.event.name
				r.Handler = b.HandlerName()
				if m := b.Installer(); m != nil {
					r.Module = m.Name()
				}
			}
			d.faults.ledger.Note(r)
		}
	}()
	return x == y
}

// countGuards reports the number of guards (installer plus imposed) on the
// binding. Caller holds the event lock.
func (b *Binding) countGuards() int { return len(b.guards) + len(b.imposed) }
