package dispatch

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"spin/internal/admit"
	"spin/internal/codegen"
	"spin/internal/rtti"
	"spin/internal/stripe"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// argPool recycles the argument vectors of the arity-specialized raises
// that cannot own their stripe's frame cell (frameCell): a raise from
// inside a handler of the same event on the same stripe, another
// goroutine's raise on a busy stripe, a wrong arity, and every raise under
// purity checking, whose argument types only the pooled path checks. So a
// steady-state raise performs no heap allocation either way. A plan that
// may retain its frame past the raise runs on a private copy instead
// (copyFrame).
var argPool = sync.Pool{
	New: func() any {
		b := make([]any, 0, cellArity)
		return &b
	},
}

// Event is a dynamically bindable procedure name (§2.1 "Defining events").
// Raising the event conditionally invokes the handlers installed on it; an
// event with only its unguarded intrinsic handler dispatches as a direct
// procedure call.
type Event struct {
	// cells are the event's raise count and its arity-specialized raises'
	// argument frames, one per stripe (frameCell). First, so the cells of an
	// Event allocated on a cache-line boundary sit on their own lines.
	cells [stripe.Stripes]frameCell

	d         *Dispatcher
	name      string
	sig       rtti.Signature
	authority *rtti.Module
	async     bool
	// ownArity is the arity Raise1..Raise5 raise on a frame cell: the
	// event's, when it is 1 to cellArity and purity checking is off, else
	// 0. The cell path skips checkArgs, so a purity-checked raise, whose
	// argument types checkArgs checks, takes the pooled path.
	ownArity int

	mu         sync.Mutex
	bindings   []*Binding
	intrinsic  *Binding
	defaultB   *Binding
	resultFn   ResultFn
	authorizer AuthorizerFn
	// tracer, when non-nil, makes recompile emit traced plans targeting
	// it. Guarded by mu; the published plan carries the decision, so
	// raises never read this field.
	tracer *trace.Tracer
	// admitQ, when non-nil, makes recompile emit plans whose asynchronous
	// steps pass through the bounded admission queue. Guarded by mu for
	// the same reason tracer is: the published plan carries the decision.
	admitQ *admit.Queue
	// stale marks the published plan as out of date with the fields
	// above; set by a commit's mutations, consumed by its recompile.
	stale bool
	// dirty is the lowest handler-list position a mutation has changed
	// since the published plan: an edit of the list there, or of the
	// compiled form or compiled-out state of the binding there. The next
	// recompile lowers the list from it on and resets it to MaxInt; the
	// zero value lowers the whole list, as the first recompile must.
	dirty int

	plan atomic.Pointer[codegen.Plan]

	// env is the event's execution environment, built once at definition
	// time: the meter and the fired excess, one immutable value serving
	// every raise (the per-raise construction it replaces was three heap
	// allocations on the hot path). The step supervisors are compiled into
	// the plan (recompile).
	env *codegen.Env

	// Dispatch statistics are sharded across cache-line-padded stripes so
	// parallel raises of one hot event do not serialize on a shared line;
	// Stats aggregates them lazily. The fired total is raised + firedExcess:
	// each raise counts itself in its stripe's cell, and the executor adds
	// to firedExcess only the firings beyond one (codegen.Env.FiredExcess),
	// so a raise that fires exactly one handler makes one shared write.
	firedExcess stripedCounter
	// timeNanos is the metered raises' virtual time. One word, not
	// striped: a metered raise already serializes on the meter's mutex.
	timeNanos atomic.Int64
}

// EventOption configures an event at definition time.
type EventOption func(*eventCfg)

type eventCfg struct {
	intrinsic *Handler
	owner     *rtti.Module
	async     bool
}

// WithIntrinsic installs h as the event's intrinsic handler: the procedure
// with the same name as the event, invoked whenever the event is raised
// unless explicitly deregistered. The intrinsic handler's module becomes
// the event's authority (§2.5).
func WithIntrinsic(h Handler) EventOption {
	return func(c *eventCfg) { c.intrinsic = &h }
}

// WithOwner assigns an authority to an event defined without an intrinsic
// handler (a pure announcement event).
func WithOwner(m *rtti.Module) EventOption {
	return func(c *eventCfg) { c.owner = m }
}

// AsAsync makes every raise of the event asynchronous: all handlers execute
// on a separate thread of control and the raiser proceeds without blocking
// (§2.6).
func AsAsync() EventOption {
	return func(c *eventCfg) { c.async = true }
}

// DefineEvent declares an event with the given qualified name and
// signature. Every procedure in SPIN is implicitly an event; in this
// reproduction modules declare the events they export, which is where the
// implicit becomes explicit.
func (d *Dispatcher) DefineEvent(name string, sig rtti.Signature, opts ...EventOption) (*Event, error) {
	if err := sig.Validate(); err != nil {
		return nil, err
	}
	var cfg eventCfg
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.async && sig.HasByRef() {
		// §2.6: asynchronous threads execute on different stacks, so
		// by-reference arguments may be destroyed before going out of
		// scope; defining such an event asynchronous is illegal.
		return nil, fmt.Errorf("%w: event %s", ErrAsyncByRef, name)
	}
	e := &Event{d: d, name: name, sig: sig, async: cfg.async, authority: cfg.owner}
	if n := sig.Arity(); n >= 1 && n <= cellArity && !d.purity {
		e.ownArity = n
	}
	e.tracer = d.tracer
	if pol := d.admit.defaultPolicy(); pol != nil {
		e.admitQ = d.admit.newQueue(name, *pol)
	}
	// Every executor adds the raise's firings beyond one to firedExcess,
	// once, on the raise's hoisted stripe index. No per-binding count is
	// kept on the raise path.
	e.env = &codegen.Env{CPU: d.cpu, FiredExcess: &e.firedExcess}

	if cfg.intrinsic != nil {
		h := *cfg.intrinsic
		if err := checkHandlerImpl(h); err != nil {
			return nil, err
		}
		if err := h.Proc.CheckHandler(sig, nil); err != nil {
			return nil, err
		}
		if h.Proc.Module != nil {
			e.authority = h.Proc.Module
		}
		e.intrinsic = &Binding{event: e, handler: h, intrinsic: true}
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.events[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateEvent, name)
	}
	d.events[name] = e
	// Intrinsic handlers — most procedures in the system — are defined
	// without any runtime overhead (§3.1), so the initial plan compiles
	// uncharged. The intrinsic binding is journaled like any install
	// (marked FlagIntrinsic); replay binds its ID to the binding
	// DefineEvent creates instead of re-installing.
	return e, e.commit(false, func(t *txn) error {
		t.stale = true
		if t.intrinsic != nil {
			return t.install(t.intrinsic)
		}
		return nil
	})
}

// Name returns the event's qualified name.
func (e *Event) Name() string { return e.name }

// Dispatcher returns the dispatcher the event is defined on.
func (e *Event) Dispatcher() *Dispatcher { return e.d }

// Signature returns the event's procedure signature.
func (e *Event) Signature() rtti.Signature { return e.sig }

// Async reports whether the event was defined asynchronous.
func (e *Event) Async() bool { return e.async }

// IntrinsicBinding returns the intrinsic handler's binding if it is still
// installed.
func (e *Event) IntrinsicBinding() *Binding {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.intrinsic != nil && e.intrinsic.installed {
		return e.intrinsic
	}
	return nil
}

// defaultBinding returns the event's default-handler binding, or nil when
// no default handler is installed.
func (e *Event) defaultBinding() *Binding {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.defaultB
}

// Bindings returns a snapshot of the installed bindings in dispatch order.
func (e *Event) Bindings() []*Binding {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Binding(nil), e.bindings...)
}

// Position reports the binding's index in dispatch order, or -1.
func (e *Event) Position(b *Binding) int {
	if b == nil || b.event != e {
		return -1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !b.installed || b.isDefault {
		return -1
	}
	return b.pos
}

// Plan returns the currently published dispatch plan (for tests and
// disassembly).
func (e *Event) Plan() *codegen.Plan { return e.plan.Load() }

// Trace enables or disables tracing for this event: the dispatch plan is
// recompiled with trace recording steps targeting t (or without any when t
// is nil) and published with the same atomic swap installations use, so
// raises in flight finish on the plan they loaded and the toggle never
// blocks a raise. A nil t restores the untraced routine, returning the hot
// path to its zero-extra-cost form.
func (e *Event) Trace(t *trace.Tracer) {
	// Uncharged: toggling observability is operator tooling, not the
	// paper's installation workload.
	_ = e.commit(false, func(tx *txn) error {
		tx.stale = tx.tracer != t
		tx.tracer = t
		return nil
	})
}

// Tracer returns the event's current tracer, or nil when untraced.
func (e *Event) Tracer() *trace.Tracer {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tracer
}

// txn is an Event inside commit: the same value, with e.mu held. Its
// methods are the control plane's mutations — install, retire,
// quarantine, readmit — and its binding-scoped journal emitter, so none
// of them can run outside a commit.
type txn Event

// commit is the control plane's one transaction. Every operation that
// changes what an event dispatches — Install, Uninstall, SetOrder, the
// default and result handlers, imposed guards, Trace, SetAdmission,
// quarantine and readmission (operator, fault controller, module),
// degradation — is one call:
//
//  1. take e.mu;
//  2. run fn, whose txn methods mutate the event, mark the plan stale,
//     and emit the operation's journal records in the order they run
//     (the operation's spans are emitted from fn too);
//  3. if fn succeeded and left the plan stale, regenerate and publish
//     it exactly once — metered when charge is set, the paper's
//     installation workload (§3.1) — before releasing e.mu.
//
// So the journal orders each event's records the way the event committed
// them, and raises never wait: they finish on the plan they loaded.
// Records that belong to no event (quotas, module markers, degradation)
// go through Dispatcher.record instead.
//
// Lock order: e.mu may be taken under d.mu (DefineEvent) and takes the
// quota, fault-controller and admission mutexes inside fn; none of those
// is held while an event's mutex is taken. The fault ledger's Observe
// returns an Action that the controller commits afterwards, operations
// that span events commit per event (sweep), and backoff and probation
// timers run through Dispatcher.afterFunc, so the whole lifecycle is
// deterministic under the simulator.
func (e *Event) commit(charge bool, fn func(*txn) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stale = false
	if err := fn((*txn)(e)); err != nil || !e.stale {
		return err
	}
	e.recompile(charge)
	return nil
}

// commitOn is commit for an operation on b, which must still be installed
// on e: otherwise it returns ErrNotInstalled and fn never runs. A binding
// that left its event is no longer the control plane's business — a
// record after its uninstall record would make the journal unreplayable.
func (e *Event) commitOn(b *Binding, charge bool, fn func(*txn) error) error {
	if b == nil || b.event != e {
		return ErrNotInstalled
	}
	return e.commit(charge, func(t *txn) error {
		if !b.installed {
			return ErrNotInstalled
		}
		return fn(t)
	})
}

// sweep commits fn over every binding of every event, one uncharged
// transaction per event: the shape of the operations that span events
// (module quarantine and readmission, degradation levels).
func (d *Dispatcher) sweep(fn func(t *txn, b *Binding)) {
	for _, e := range d.Events() {
		_ = e.commit(false, func(t *txn) error {
			for _, b := range t.bindings {
				fn(t, b)
			}
			return nil
		})
	}
}

// recompile compiles and publishes the dispatch plan; only commit calls
// it. The new plan is compiled from the published one: it keeps the
// published steps of the bindings ahead of e.dirty — found by walking back
// from the plan's end, past only the steps the commit changed — and lowers
// only the list from e.dirty on (codegen/chain.go).
// When charge is true the paper's O(n) full regeneration is metered all
// the same, accumulating to its O(n^2) total installation overhead: the
// calibrated model does not move.
func (e *Event) recompile(charge bool) {
	prev := e.plan.Load()
	from := min(e.dirty, len(e.bindings))
	keep := 0
	if prev != nil {
		// A step is kept when its binding still sits ahead of from; a
		// binding the commit moved or retired sits behind it or left.
		for keep = prev.Steps(); keep > 0; keep-- {
			if b := prev.StepBinding(keep - 1).Tag.(*Binding); b.installed && b.pos < from {
				break
			}
		}
	}
	var buf [4]*codegen.Binding // the usual recompile lowers one binding or none
	specs := buf[:0]
	for _, b := range e.bindings[from:] {
		if b.quarantined.Load() || b.degraded.Load() {
			// Quarantined and degraded bindings stay on the handler list
			// (their installation is intact) but are compiled out of the
			// plan, so the hot path pays nothing for them (DESIGN.md 12,
			// 13).
			continue
		}
		specs = append(specs, b.compile(e.d))
	}
	var def *codegen.Binding
	if e.defaultB != nil && !e.defaultB.quarantined.Load() {
		def = e.defaultB.compile(e.d)
	}
	info := codegen.EventInfo{Name: e.name, Arity: e.sig.Arity(), HasResult: e.sig.HasResult()}
	opts := codegen.Options{Trace: e.tracer, Admit: e.admitQ, Async: runAsync, RunEphemeral: runEphemeral}
	if e.d.faults.enforce || e.d.purity {
		// The purity monitor rejects a raise through the fault barrier
		// (faultCtl.GuardPanic), which is all a policy-less purity-checked
		// plan uses it for: the hook re-panics every other value.
		opts.Protect = e.d.faults
	}
	plan := codegen.Compile(prev, keep, info, specs, e.resultFn, def, opts)
	if charge {
		cpu := e.d.cpu
		cpu.Begin(vtime.AccountEvents)
		cpu.Charge(vtime.PlanCompileBase)
		// Full regeneration: cost linear in the bindings present, O(n^2)
		// for n installs (§3.1 "Installation overhead").
		cpu.ChargeN(vtime.PlanCompileBinding, len(e.bindings))
		cpu.End()
	}
	e.plan.Store(plan)
	e.dirty = math.MaxInt
}

// Raise announces the event. All installed handlers whose guards evaluate
// true execute; the merged result (for result events) is returned. If no
// handler fires and no default handler is installed, ErrNoHandler is
// returned — the paper's runtime exception at the raise point.
//
// For events defined asynchronous, Raise behaves as RaiseAsync and the
// result is always nil.
func (e *Event) Raise(args ...any) (any, error) {
	if e.async {
		return nil, e.RaiseAsync(args...)
	}
	return e.raiseWith(e.borrow(args))
}

// RaiseAsync raises the event asynchronously: handlers run on a separate
// thread of control and the raiser proceeds immediately. Raising an event
// that returns a result asynchronously is an error unless a default
// handler is installed (§2.6).
//
// On an event with an admission policy (WithAdmission's Default, or
// SetAdmission) the raise passes through the event's bounded queue: the
// plan executes on a pool worker, and under overload the policy decides —
// a shed raise returns an error wrapping admit.ErrOverload, a Block-mode
// raise waits (bounded by the policy's BlockTimeout), a Coalesce-mode
// raise may merge into a pending raise of the same event. Under the
// simulator admission is inactive: a single-threaded simulation cannot
// overload itself.
func (e *Event) RaiseAsync(args ...any) error {
	return e.raiseAsync(slices.Clone(args)) // the raiser keeps args; the raise runs after this returns
}

// raiseAsync is RaiseAsync of a frame the raise owns.
func (e *Event) raiseAsync(args []any) error {
	if err := e.checkArgs(args); err != nil {
		return err
	}
	if e.sig.HasResult() && e.defaultBinding() == nil {
		return fmt.Errorf("%w: %s", ErrAsyncNeedsDefault, e.name)
	}
	if e.sig.HasByRef() {
		return fmt.Errorf("%w: %s", ErrAsyncByRef, e.name)
	}
	if q := e.plan.Load().AdmitQueue(); q != nil && e.d.sim == nil {
		e.d.cpu.Begin(vtime.AccountEvents)
		err := e.d.submitRaise(q, e, args)
		e.d.cpu.End()
		return err
	}
	e.d.cpu.Begin(vtime.AccountEvents)
	e.d.spawn(e.sig.Arity(), func() {
		_, _ = e.raiseWith(e.plan.Load(), args) // the raise owns args
	})
	e.d.cpu.End()
	return nil
}

// SetAdmission gives the event a bounded admission queue under pol (or
// removes it with nil): asynchronous raises and asynchronous handler
// invocations pass through the queue, drained by the dispatcher's shared
// worker pool. The decision is compiled into the dispatch plan and
// published with the same atomic swap installs use, so raises in flight
// finish on the plan they loaded and the toggle never blocks a raise.
func (e *Event) SetAdmission(pol *admit.Policy) {
	// Uncharged, like Trace: toggling overload control is operator
	// tooling, not the paper's installation workload.
	var old *admit.Queue
	_ = e.commit(false, func(t *txn) error {
		old = t.admitQ
		t.stale = pol != nil || old != nil
		t.admitQ = nil
		if pol != nil {
			t.admitQ = t.d.admit.newQueue(t.name, *pol)
		}
		return nil
	})
	if old != nil {
		e.d.admit.replace(old) // the published plan no longer names it
	}
}

// AdmissionQueue returns the admission queue compiled into the event's
// current plan, or nil when the event is unqueued.
func (e *Event) AdmissionQueue() *admit.Queue { return e.plan.Load().AdmitQueue() }

// copyFrame is the dispatcher's one rule for when a raise copies the frame
// it borrows — from the raiser, or, pooled, from its frame cell or argPool
// until the raise returns — and it copies at most once. A filter rewrites
// its frame in place, so a raiser's frame is copied; a pooled one is the
// raise's own. An async or ephemeral step may read its frame after the
// raise returns (RetainsArgs), so it gets a copy that is never handed back.
func copyFrame(plan *codegen.Plan, pooled bool) bool {
	return plan.RetainsArgs() || plan.HasFilter() && !pooled
}

// borrow returns the published plan and the frame it raises args on,
// which the raiser keeps: args itself, or a copy when copyFrame says so.
func (e *Event) borrow(args []any) (*codegen.Plan, []any) {
	plan := e.plan.Load()
	if copyFrame(plan, false) {
		args = slices.Clone(args)
	}
	return plan, args
}

// raiseWith executes one synchronous raise against a specific plan. The
// arity-specialized entry points pass the plan they inspected for argument
// retention, so a concurrent plan swap cannot invalidate their decision to
// recycle the argument buffer.
func (e *Event) raiseWith(plan *codegen.Plan, args []any) (any, error) {
	if err := e.checkArgs(args); err != nil {
		return nil, err
	}
	idx := stripe.Index()
	out := e.raiseCounted(plan, args, idx, e.cells[idx].count(1))
	if (out.Fired > 0 || out.UsedDefault) && !out.Ambiguous {
		return out.Result, nil
	}
	return e.finishRaise(out)
}

// raiseOut is raiseWith before the outcome mapping: it validates, counts,
// and executes one raise, returning the raw plan outcome. The error covers
// argument validation and purity-monitor rejections (Outcome.Rejection) —
// the cases a loop of raises rejects; the rest of the outcome is the
// caller's to map. RaiseReport and a batch's loop of single raises
// (raiseOne) call it so they can fold outcomes without re-deriving them
// from the (any, error) contract.
func (e *Event) raiseOut(plan *codegen.Plan, args []any) (codegen.Outcome, error) {
	if err := e.checkArgs(args); err != nil {
		return codegen.Outcome{}, err
	}
	idx := stripe.Index()
	out := e.raiseCounted(plan, args, idx, e.cells[idx].count(1))
	return out, out.Rejection()
}

// raiseCounted executes one raise already validated and counted on stripe
// idx, whose cell's count after it is raised: the journal's raise-sampling
// draw. One stripe hash serves everything a raise touches on a stripe: its
// cell's raise count, which counts the raise before the plan runs, and the
// executor's add to the fired excess, if it fires other than one handler.
// Under purity checking the plan runs behind the fault barrier, which ends
// a rejected raise's walk with its firing taken back (codegen.FaultHook).
func (e *Event) raiseCounted(plan *codegen.Plan, args []any, idx int, raised int64) codegen.Outcome {
	var out codegen.Outcome
	if e.d.cpu != nil {
		out = e.executeMetered(plan, args, idx)
	} else {
		out = plan.Execute(e.env, args, idx)
	}
	e.sample(raised, out.Fired)
	return out
}

// sample is the sampled raise journaling of a raise counted raised on its
// cell: a journal-off dispatcher pays one nil check; an off-sample draw is
// one mask test on the raise's count. A rejected raise (fired < 0) records
// nothing.
func (e *Event) sample(raised int64, fired int) {
	if jr := e.d.jrnl; jr != nil && jr.SampleCount(uint64(raised)) && fired >= 0 {
		jr.SampleHit(e.name, fired)
	}
}

// executeMetered runs one raise of plan on a metered dispatcher: the
// raise's virtual time is charged to the events account and added to the
// event's time total. An unmetered raise calls plan.Execute directly.
func (e *Event) executeMetered(plan *codegen.Plan, args []any, idx int) codegen.Outcome {
	cpu := e.d.cpu
	cpu.Begin(vtime.AccountEvents)
	start := cpu.Now()
	out := plan.Execute(e.env, args, idx)
	e.timeNanos.Add(int64(cpu.Now().Sub(start)))
	cpu.End()
	return out
}

// finishRaise maps a plan outcome to the raise result and error contract:
// raiseWith's slow path, a rejection's included.
func (e *Event) finishRaise(out codegen.Outcome) (any, error) {
	if err := out.Rejection(); err != nil {
		return nil, err
	}
	if out.Fired == 0 && !out.UsedDefault {
		return nil, fmt.Errorf("%w: %s", ErrNoHandler, e.name)
	}
	if out.Ambiguous {
		return out.Result, fmt.Errorf("%w: %s", ErrAmbiguousResult, e.name)
	}
	return out.Result, nil
}

// own claims the frame cell of the caller's stripe for a raise of n
// arguments with one CAS of its idle word v to v+1 (frameCell), returning
// the cell, the stripe and the raise's count, v/2+1; or nil when raises of
// n arguments own no cell on this event or the cell is busy.
func (e *Event) own(n int) (c *frameCell, idx int, raised int64) {
	if e.ownArity == n {
		idx = stripe.Index()
		c = &e.cells[idx]
		v := c.w.Load()
		if v&1 == 0 && c.w.CompareAndSwap(v, v+1) {
			return c, idx, v>>1 + 1
		}
	}
	return nil, 0, 0
}

// raiseOwned runs a synchronous raise on frame, the arguments in the cell
// of stripe idx, which the raise claimed with count raised (frameCell):
// raiseWith without the argument check, the stripe hash and the count the
// claim stands for. It raises on a private copy when copyFrame says so.
func (e *Event) raiseOwned(frame []any, idx int, raised int64) (any, error) {
	plan := e.plan.Load()
	if copyFrame(plan, true) {
		frame = slices.Clone(frame)
	}
	out := e.raiseCounted(plan, frame, idx, raised)
	if (out.Fired > 0 || out.UsedDefault) && !out.Ambiguous {
		return out.Result, nil
	}
	return e.finishRaise(out)
}

// raisePooled runs a synchronous raise of plan over a pooled argument
// buffer, or over a private copy of it when copyFrame says so.
func (e *Event) raisePooled(plan *codegen.Plan, bp *[]any) (any, error) {
	args, frame := *bp, *bp
	if copyFrame(plan, true) {
		frame = slices.Clone(args)
	}
	res, err := e.raiseWith(plan, frame)
	putArgs(bp, args)
	return res, err
}

// putArgs returns a pooled argument frame, its arity words nilled first so
// the pool does not pin arguments, one store each (frameCell.release).
func putArgs(bp *[]any, args []any) {
	for i := len(args) - 1; i >= 0; i-- {
		args[i] = nil
	}
	*bp = args[:0]
	argPool.Put(bp)
}

// Raise0 raises a no-parameter event without allocating. It is the
// arity-specialized fast path the typed Event0 wrapper uses; semantics are
// identical to Raise().
func (e *Event) Raise0() (any, error) {
	if e.async {
		return nil, e.raiseAsync(nil)
	}
	return e.raiseWith(e.plan.Load(), nil)
}

// Raise1 raises the event with one argument on its stripe's frame cell
// (frameCell), or through a pooled argument frame when it cannot own the
// cell; a steady-state raise performs no heap allocation. Semantics are
// identical to Raise(a1).
func (e *Event) Raise1(a1 any) (any, error) {
	if e.async {
		return nil, e.raiseAsync([]any{a1})
	}
	if c, idx, raised := e.own(1); c != nil {
		defer c.release(1)
		c.frame[0] = a1
		return e.raiseOwned(c.frame[:1], idx, raised)
	}
	bp := argPool.Get().(*[]any)
	*bp = append((*bp)[:0], a1)
	return e.raisePooled(e.plan.Load(), bp)
}

// Raise2 raises the event with two arguments, as Raise1 does. Semantics
// are identical to Raise(a1, a2).
func (e *Event) Raise2(a1, a2 any) (any, error) {
	if e.async {
		return nil, e.raiseAsync([]any{a1, a2})
	}
	if c, idx, raised := e.own(2); c != nil {
		defer c.release(2)
		c.frame[0], c.frame[1] = a1, a2
		return e.raiseOwned(c.frame[:2], idx, raised)
	}
	bp := argPool.Get().(*[]any)
	*bp = append((*bp)[:0], a1, a2)
	return e.raisePooled(e.plan.Load(), bp)
}

// Raise3 raises the event with three arguments, as Raise1 does. Semantics
// are identical to Raise(a1, a2, a3).
func (e *Event) Raise3(a1, a2, a3 any) (any, error) {
	if e.async {
		return nil, e.raiseAsync([]any{a1, a2, a3})
	}
	if c, idx, raised := e.own(3); c != nil {
		defer c.release(3)
		c.frame[0], c.frame[1], c.frame[2] = a1, a2, a3
		return e.raiseOwned(c.frame[:3], idx, raised)
	}
	bp := argPool.Get().(*[]any)
	*bp = append((*bp)[:0], a1, a2, a3)
	return e.raisePooled(e.plan.Load(), bp)
}

// Raise4 raises the event with four arguments, as Raise1 does. Semantics
// are identical to Raise(a1, a2, a3, a4).
func (e *Event) Raise4(a1, a2, a3, a4 any) (any, error) {
	if e.async {
		return nil, e.raiseAsync([]any{a1, a2, a3, a4})
	}
	if c, idx, raised := e.own(4); c != nil {
		defer c.release(4)
		c.frame[0], c.frame[1], c.frame[2], c.frame[3] = a1, a2, a3, a4
		return e.raiseOwned(c.frame[:4], idx, raised)
	}
	bp := argPool.Get().(*[]any)
	*bp = append((*bp)[:0], a1, a2, a3, a4)
	return e.raisePooled(e.plan.Load(), bp)
}

// Raise5 raises the event with five arguments, as Raise1 does — the widest
// shape Table 1 sweeps. Semantics are identical to Raise(a1, a2, a3, a4,
// a5).
func (e *Event) Raise5(a1, a2, a3, a4, a5 any) (any, error) {
	if e.async {
		return nil, e.raiseAsync([]any{a1, a2, a3, a4, a5})
	}
	if c, idx, raised := e.own(5); c != nil {
		defer c.release(5)
		c.frame[0], c.frame[1], c.frame[2], c.frame[3], c.frame[4] = a1, a2, a3, a4, a5
		return e.raiseOwned(c.frame[:5], idx, raised)
	}
	bp := argPool.Get().(*[]any)
	*bp = append((*bp)[:0], a1, a2, a3, a4, a5)
	return e.raisePooled(e.plan.Load(), bp)
}

// checkArgs validates the raise argument vector: arity always, dynamic
// types when the dispatcher runs with purity checking (the stand-in for
// Modula-3's static call-site checking, which the typed spin wrappers
// restore at compile time).
func (e *Event) checkArgs(args []any) error {
	if len(args) != e.sig.Arity() {
		return fmt.Errorf("%w: event %s got %d, want %d", ErrBadArity, e.name, len(args), e.sig.Arity())
	}
	if e.d.purity {
		for i, a := range args {
			if !e.sig.Args[i].AssignableFrom(rtti.TypeOf(a)) {
				return fmt.Errorf("%w: event %s arg %d: %v not assignable to %v",
					ErrBadArgType, e.name, i, rtti.TypeOf(a), e.sig.Args[i])
			}
		}
	}
	return nil
}

// Stats is a snapshot of an event's dispatch statistics, the data behind
// Table 3.
type Stats struct {
	// Raised counts raises of the event.
	Raised int64
	// Fired counts handler invocations (across all handlers, filters and
	// the default handler included): Fired = Raised + excess, the raises'
	// firings beyond one each. A handler that panics out to its raiser
	// with no fault policy counts as fired, as it does behind the fault
	// barrier. A Stats that races raises counts each raise in flight as
	// one firing until its excess lands, so it may briefly read one firing
	// high per raise that fires nothing.
	Fired int64
	// Time is the cumulative virtual time spent handling the event
	// (dispatch plus handler bodies), in metered configurations.
	Time vtime.Duration
	// Handlers and Guards count currently installed handlers and guards
	// (installer plus imposed), as reported in Table 3's last columns.
	Handlers int
	Guards   int
}

// Stats returns a snapshot of the event's statistics.
func (e *Event) Stats() Stats {
	e.mu.Lock()
	handlers := len(e.bindings)
	guards := 0
	for _, b := range e.bindings {
		guards += b.countGuards()
	}
	e.mu.Unlock()
	// The excess first: a raise adds to it only after its raised add, so
	// every excess this read sees has its raise counted in the read behind
	// it, and the sum is never low by a raise's negative excess.
	excess := e.firedExcess.Load()
	var raised int64
	for i := range e.cells {
		raised += (e.cells[i].w.Load() + 1) >> 1
	}
	return Stats{
		Raised:   raised,
		Fired:    raised + excess,
		Time:     vtime.Duration(e.timeNanos.Load()),
		Handlers: handlers,
		Guards:   guards,
	}
}
