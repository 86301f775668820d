package dispatch

import (
	"fmt"
	"slices"
	"time"

	"spin/internal/journal"
	"spin/internal/rtti"
	"spin/internal/trace"
)

// DefaultEphemeralDeadline bounds EPHEMERAL handler execution when the
// installer does not specify a deadline. The paper leaves the period to the
// event's authority; 10ms of real time is generous for handlers that are
// expected to "return quickly".
const DefaultEphemeralDeadline = 10 * time.Millisecond

// InstallOption configures a handler installation.
type InstallOption func(*installCfg) error

type installCfg struct {
	guards     []Guard
	closure    any
	hasClosure bool
	order      Order
	async      bool
	ephemeral  bool
	deadline   time.Duration
	filter     bool
	credential any
	priority   int
}

// WithGuard attaches a guard predicate to the installation; the handler
// fires only if every attached guard evaluates true. May be repeated.
func WithGuard(g Guard) InstallOption {
	return func(c *installCfg) error {
		c.guards = append(c.guards, g)
		return nil
	}
}

// WithClosure attaches an opaque closure, passed as the handler's leading
// argument at each invocation (§2.1).
func WithClosure(closure any) InstallOption {
	return func(c *installCfg) error {
		c.closure = closure
		c.hasClosure = true
		return nil
	}
}

// First places the handler at the beginning of the handler list at
// installation time.
func First() InstallOption {
	return func(c *installCfg) error { c.order = Order{Kind: OrderFirst}; return nil }
}

// Last places the handler at the end of the handler list at installation
// time.
func Last() InstallOption {
	return func(c *installCfg) error { c.order = Order{Kind: OrderLast}; return nil }
}

// Before places the handler immediately before ref.
func Before(ref *Binding) InstallOption {
	return func(c *installCfg) error { c.order = Order{Kind: OrderBefore, Ref: ref}; return nil }
}

// After places the handler immediately after ref.
func After(ref *Binding) InstallOption {
	return func(c *installCfg) error { c.order = Order{Kind: OrderAfter, Ref: ref}; return nil }
}

// Async makes this handler execute asynchronously on each firing; the
// raiser does not wait for it and its result is not returned (§2.6).
func Async() InstallOption {
	return func(c *installCfg) error { c.async = true; return nil }
}

// Ephemeral installs the handler as terminable with the given real-time
// deadline (zero selects DefaultEphemeralDeadline). The handler's
// procedure must be declared EPHEMERAL (§2.6).
func Ephemeral(deadline time.Duration) InstallOption {
	return func(c *installCfg) error {
		c.ephemeral = true
		c.deadline = deadline
		return nil
	}
}

// AsFilter installs the handler as a filter: it may take parameters by
// reference and rewrite the argument values seen by handlers and guards
// ordered after it (§2.3 "Passing arguments").
func AsFilter() InstallOption {
	return func(c *installCfg) error { c.filter = true; return nil }
}

// WithCredential attaches an opaque reference that is passed to the
// event's authorizer, bootstrapping richer authorization protocols such as
// password-based ones (§2.5).
func WithCredential(cred any) InstallOption {
	return func(c *installCfg) error { c.credential = cred; return nil }
}

// WithDeadline attaches a wall-clock watchdog deadline to an asynchronous
// handler: an invocation still running when the deadline passes has its
// context cancelled and is recorded as a deadline fault. For EPHEMERAL
// handlers the deadline passed to Ephemeral governs; this option is for
// Async handlers, which the paper otherwise leaves unbounded.
func WithDeadline(deadline time.Duration) InstallOption {
	return func(c *installCfg) error { c.deadline = deadline; return nil }
}

// WithPriority assigns the handler a degradation priority class: 0 (the
// default) is essential and never disabled; higher classes are more
// optional and are compiled out of the dispatch plan first when the
// overload controller steps through its degradation levels (see
// WithAdmission). Negative classes are treated as 0.
func WithPriority(class int) InstallOption {
	return func(c *installCfg) error {
		if class < 0 {
			class = 0
		}
		c.priority = class
		return nil
	}
}

// checkHandlerImpl validates that a handler has an implementation and a
// descriptor.
func checkHandlerImpl(h Handler) error {
	if h.Fn == nil && h.CtxFn == nil && h.Inline == nil {
		return ErrNilHandler
	}
	if h.Proc == nil {
		return rtti.ErrNilProc
	}
	return nil
}

// checkGuard validates one guard against the event signature.
func (e *Event) checkGuard(g Guard) error {
	if g.Pred != nil {
		return nil // predicates are FUNCTIONAL by construction
	}
	if g.Fn == nil {
		return fmt.Errorf("dispatch: guard on %s has no implementation", e.name)
	}
	if g.Proc == nil {
		return fmt.Errorf("%w: out-of-line guard on %s requires a descriptor", rtti.ErrNilProc, e.name)
	}
	var cloType rtti.Type
	if g.Closure != nil {
		cloType = rtti.TypeOf(g.Closure)
	}
	return g.Proc.CheckGuard(e.sig, cloType)
}

// Install registers h as a handler on the event (§2.2's
// Dispatcher.InstallHandler). The installation is typechecked, submitted
// to the event's authorizer, inserted according to its ordering
// constraint, and the event's dispatch code is regenerated.
func (e *Event) Install(h Handler, opts ...InstallOption) (*Binding, error) {
	var cfg installCfg
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if err := checkHandlerImpl(h); err != nil {
		return nil, err
	}

	// Typechecking (§2.4): handler signature must match the event's,
	// with an optional leading closure parameter accepting the closure's
	// type.
	var cloType rtti.Type
	if cfg.hasClosure {
		cloType = rtti.TypeOf(cfg.closure)
	}
	if err := h.Proc.CheckHandler(e.sig, cloType); err != nil {
		return nil, err
	}
	for _, g := range cfg.guards {
		if err := e.checkGuard(g); err != nil {
			return nil, err
		}
	}
	if cfg.ephemeral && !h.Proc.Ephemeral {
		return nil, fmt.Errorf("%w: %s", ErrNotEphemeralProc, h.Proc.Name)
	}
	if cfg.async && e.sig.HasByRef() {
		return nil, fmt.Errorf("%w: handler %s", ErrAsyncByRef, h.Proc.Name)
	}
	if cfg.filter && cfg.async {
		return nil, fmt.Errorf("%w: filter %s cannot be asynchronous", ErrAsyncByRef, h.Proc.Name)
	}

	b := &Binding{
		event:      e,
		handler:    h,
		closure:    cfg.closure,
		guards:     cfg.guards,
		order:      cfg.order,
		async:      cfg.async,
		ephemeral:  cfg.ephemeral,
		deadline:   cfg.deadline,
		filter:     cfg.filter,
		credential: cfg.credential,
		priority:   cfg.priority,
	}

	err := e.commit(true, func(t *txn) error {
		// A module under fault quarantine may not install new handlers
		// until it is re-admitted (see faultctl.go).
		if t.d.faults.moduleQuarantined(b.Installer()) {
			t.traceReject(trace.RejectFault, b)
			return fmt.Errorf("%w: %s", ErrModuleQuarantined, b.Installer().Name())
		}
		// Resource accounting (§2.6 "Too many handlers"): the installation
		// is charged to the installing module before the authorizer sees it.
		if err := t.d.quota.charge(b.Installer()); err != nil {
			t.traceReject(trace.RejectQuota, b)
			return err
		}
		if err := t.authorize(OpInstall, b); err != nil {
			t.d.quota.release(b.Installer())
			t.traceReject(trace.RejectAuth, b)
			return err
		}
		if err := t.install(b); err != nil {
			t.d.quota.release(b.Installer())
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// install puts b on the event — into the handler list per its ordering
// constraint, or into the default slot — and journals it.
func (t *txn) install(b *Binding) error {
	if b.isDefault {
		t.defaultB = b
	} else if err := t.insert(b); err != nil {
		return err
	}
	b.installed = true
	t.stale = true
	t.record(journal.KindInstall, b, 0)
	return nil
}

// retire takes b off the event the way every departure does — Uninstall
// or a replaced or cleared default handler: out of the handler
// list (its installation accounting returned) or the default slot, no
// longer installed, forgotten by the fault ledger (a pending readmission
// timer then finds nothing to do), its uninstall journaled.
func (t *txn) retire(b *Binding) {
	if b.isDefault {
		t.defaultB = nil
	} else {
		t.bindings = slices.Delete(t.bindings, b.pos, b.pos+1)
		t.moved(b.pos)
		if !b.intrinsic {
			t.d.quota.release(b.Installer())
		}
	}
	b.installed = false
	t.d.faults.ledger.Forget(b)
	t.stale = true
	t.record(journal.KindUninstall, b, 0)
}

// moved records a handler-list edit at position i: the bindings from i on
// take their new positions, and the next recompile lowers them again.
func (t *txn) moved(i int) {
	for j := i; j < len(t.bindings); j++ {
		t.bindings[j].pos = j
	}
	t.dirty = min(t.dirty, i)
}

// changed records that b's compiled form or compiled-out state changed:
// the next recompile lowers the list from b on. The default handler is
// compiled on every recompile and sits on no list.
func (t *txn) changed(b *Binding) {
	if !b.isDefault {
		t.dirty = min(t.dirty, b.pos)
	}
}

// traceReject records a control-plane rejection span for a denied
// installation, labelled with the rejected handler's installing module.
func (t *txn) traceReject(reason trace.RejectReason, b *Binding) {
	if t.tracer == nil {
		return
	}
	module := b.HandlerName()
	if m := b.Installer(); m != nil {
		module = m.Name()
	}
	t.tracer.Reject(t.name, reason, module)
}

// insert places b into the handler list per its ordering constraint.
func (t *txn) insert(b *Binding) error {
	switch b.order.Kind {
	case OrderFirst:
		t.bindings = slices.Insert(t.bindings, 0, b)
		t.moved(0)
	case Unordered, OrderLast:
		t.bindings = append(t.bindings, b)
		t.moved(len(t.bindings) - 1)
	case OrderBefore, OrderAfter:
		ref := b.order.Ref
		if ref == nil || ref.event != (*Event)(t) {
			return fmt.Errorf("%w: event %s", ErrOrderRef, t.name)
		}
		if !ref.installed || ref.isDefault {
			return fmt.Errorf("%w: reference binding removed from %s", ErrOrderRef, t.name)
		}
		i := ref.pos
		if b.order.Kind == OrderAfter {
			i++
		}
		t.bindings = slices.Insert(t.bindings, i, b)
		t.moved(i)
	default:
		return fmt.Errorf("dispatch: unknown ordering constraint %v", b.order.Kind)
	}
	return nil
}

// Uninstall removes a binding from its event. Removing the intrinsic
// binding is the paper's idiom for replacing a procedure's implementation:
// deregister the intrinsic handler, then register an alternate one (§2.1).
func (e *Event) Uninstall(b *Binding) error {
	return e.commitOn(b, true, func(t *txn) error {
		if err := t.authorize(OpUninstall, b); err != nil {
			return err
		}
		if b.isDefault {
			return ErrNotInstalled // the default slot is SetDefaultHandler's
		}
		t.retire(b)
		return nil
	})
}

// SetOrder dynamically changes a binding's ordering constraint and
// repositions it (§2.3: "the dispatcher allows the ordering constraints
// associated with a given handler to be queried and dynamically changed").
func (e *Event) SetOrder(b *Binding, o Order) error {
	return e.commitOn(b, true, func(t *txn) error {
		if (o.Kind == OrderBefore || o.Kind == OrderAfter) && o.Ref == b {
			return fmt.Errorf("%w: binding ordered against itself", ErrOrderRef)
		}
		if b.isDefault {
			return ErrNotInstalled // the default slot has no order
		}
		i, old := b.pos, b.order
		t.bindings = slices.Delete(t.bindings, i, i+1)
		t.moved(i)
		b.order = o
		if err := t.insert(b); err != nil {
			// Restore the previous position and constraint on failure.
			t.bindings = slices.Insert(t.bindings, i, b)
			t.moved(i)
			b.order = old
			return err
		}
		t.stale = true
		t.record(journal.KindSetOrder, b, 0)
		return nil
	})
}

// SetDefaultHandler installs the handler that executes only when no other
// handler fires (§2.3). Passing a Handler with a nil Fn and nil Inline
// clears the default handler. The operation is submitted to the event's
// authorizer.
func (e *Event) SetDefaultHandler(h Handler) error {
	var b *Binding
	if h.Fn != nil || h.CtxFn != nil || h.Inline != nil {
		if err := checkHandlerImpl(h); err != nil {
			return err
		}
		if err := h.Proc.CheckHandler(e.sig, nil); err != nil {
			return err
		}
		b = &Binding{event: e, handler: h, isDefault: true}
	}
	return e.commit(true, func(t *txn) error {
		if err := t.authorize(OpSetDefault, b); err != nil {
			return err
		}
		if old := t.defaultB; old != nil {
			t.retire(old)
		}
		t.stale = true // a clear with nothing to clear still regenerates
		if b == nil {
			return nil
		}
		return t.install(b)
	})
}

// SetResultHandler installs the function that merges multiple handler
// results; it is called separately for each result (§2.3 "Handling
// results"). A nil fn clears it.
func (e *Event) SetResultHandler(fn ResultFn) error {
	return e.commit(true, func(t *txn) error {
		if err := t.authorize(OpSetResult, nil); err != nil {
			return err
		}
		t.resultFn = fn
		t.stale = true
		return nil
	})
}
