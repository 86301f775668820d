package dispatch

import (
	"fmt"
	"sync"
	"time"

	"spin/internal/fault"
	"spin/internal/journal"
	"spin/internal/rtti"
	"spin/internal/vtime"
)

// faultCtl is the dispatcher's fault controller: the bridge between the
// mechanism-free fault ledger (internal/fault) and the dispatch machinery
// that carries its decisions out. It implements codegen.FaultHook, so a
// plan compiled with protection delivers recovered panics here; the
// controller turns the ledger's verdicts into plan commits (quarantine,
// readmission; see Event.commit).
type faultCtl struct {
	d       *Dispatcher
	ledger  *fault.Ledger
	policy  fault.Policy // normalized copy, read-only after construction
	enforce bool

	mu       sync.Mutex
	qModules map[*rtti.Module]bool // modules denied new installations
}

func newFaultCtl(d *Dispatcher, pol fault.Policy) *faultCtl {
	ledger := fault.NewLedger(pol)
	return &faultCtl{
		d:        d,
		ledger:   ledger,
		policy:   ledger.Policy(),
		enforce:  pol.Enforcing(),
		qModules: make(map[*rtti.Module]bool),
	}
}

// HandlerPanic implements codegen.FaultHook for synchronous handler,
// filter, and default-handler panics recovered inside a protected plan.
// Without an enforcing policy the plan is protected only for the purity
// monitor, so the panic goes on to the raiser.
func (f *faultCtl) HandlerPanic(tag, val any, stack []byte) {
	if !f.enforce {
		panic(val)
	}
	b, _ := tag.(*Binding)
	f.handlerPanic(b, val, stack)
}

// GuardPanic implements codegen.FaultHook for out-of-line guard panics.
// The purity monitor reports a mutating FUNCTIONAL guard by panicking
// ErrGuardMutatedArgs; that is a raiser-visible contract violation, not an
// extension fault, so it rejects the raise with the error. Any other value
// is an extension fault under an enforcing policy and goes on to the
// raiser without one, as HandlerPanic's does.
func (f *faultCtl) GuardPanic(tag, val any, stack []byte) error {
	b, _ := tag.(*Binding)
	if val == ErrGuardMutatedArgs {
		return fmt.Errorf("%w: event %s", ErrGuardMutatedArgs, b.event.name)
	}
	if !f.enforce {
		panic(val)
	}
	f.observe(b, fault.Record{
		Kind:   fault.KindPanic,
		Origin: fault.OriginGuard,
		Value:  val,
		Stack:  stack,
	})
	return nil
}

// handlerPanic records a panic recovered by a supervisor (EPHEMERAL or
// asynchronous invocation) rather than by a protected plan.
func (f *faultCtl) handlerPanic(b *Binding, val any, stack []byte) {
	f.observe(b, fault.Record{
		Kind:   fault.KindPanic,
		Origin: fault.OriginHandler,
		Value:  val,
		Stack:  stack,
	})
}

// deadline records a watchdog termination.
func (f *faultCtl) deadline(b *Binding, d time.Duration) {
	f.observe(b, fault.Record{
		Kind:   fault.KindDeadline,
		Origin: fault.OriginHandler,
		Cost:   vtime.Duration(d),
	})
}

// observe stamps the record with the binding's identity, charges it
// against the ledger, and carries out whatever action the ledger returns.
func (f *faultCtl) observe(b *Binding, r fault.Record) {
	var key any
	if b != nil {
		key = b
		r.Event = b.event.name
		r.Handler = b.HandlerName()
		if mod := b.Installer(); mod != nil {
			r.Module = mod.Name()
		}
	}
	if t := f.d.tracer; t != nil {
		t.Fault(r.Event, r.Handler, uint64(r.Kind))
	}
	if act := f.ledger.Observe(key, r); act.Quarantine {
		f.quarantine(b, act)
	}
}

// quarantine compiles b out of its event's plan and schedules probation
// after the action's backoff. A binding that faulted on its way out (it
// uninstalled itself, or lost the race to an uninstall) is no longer the
// ledger's business: the commit refuses it, and the entry this fault
// re-created after Uninstall dropped it goes too.
func (f *faultCtl) quarantine(b *Binding, act fault.Action) {
	flipped := false
	if err := b.event.commitOn(b, false, func(t *txn) error {
		if flipped = t.quarantine(b, act.Level); flipped && f.d.tracer != nil {
			f.d.tracer.Quarantine(t.name, b.HandlerName(), act.Level)
		}
		return nil
	}); err != nil {
		f.ledger.Forget(b)
		return
	}
	if flipped {
		f.d.afterFunc(act.Backoff, func() { f.readmit(b) })
	}
}

// readmit moves a quarantined binding to probation: its entry is compiled
// back into the plan with a tightened budget, and a clean probation period
// restores it to full health. A binding uninstalled while quarantined has
// been forgotten by the ledger, so the timer finds nothing to do.
func (f *faultCtl) readmit(b *Binding) {
	ok := false
	_ = b.event.commitOn(b, false, func(t *txn) error {
		if ok = f.ledger.Readmit(b); ok {
			t.readmit(b, journal.KindProbation)
			if tr := f.d.tracer; tr != nil {
				tr.Probation(t.name, b.HandlerName(), false)
			}
		}
		return nil
	})
	if ok {
		f.d.afterFunc(f.policy.Backoff, func() { f.restore(b) })
	}
}

// restore ends a clean probation period.
func (f *faultCtl) restore(b *Binding) {
	_ = b.event.commitOn(b, false, func(t *txn) error {
		if f.ledger.Restore(b) {
			if tr := f.d.tracer; tr != nil {
				tr.Probation(t.name, b.HandlerName(), true)
			}
			t.record(journal.KindRestore, b, 0)
		}
		return nil
	})
}

// quarantine compiles b out of the plan and journals it at level;
// false when b was already out.
func (t *txn) quarantine(b *Binding, level int) bool {
	if b.quarantined.Swap(true) {
		return false
	}
	t.changed(b)
	t.stale = true
	t.record(journal.KindQuarantine, b, int64(level))
	return true
}

// readmit compiles b back into the plan if it was out and journals kind:
// a restore, or the fault controller's probation.
func (t *txn) readmit(b *Binding, kind journal.Kind) {
	if b.quarantined.Swap(false) {
		t.changed(b)
		t.stale = true
	}
	t.record(kind, b, 0)
}

// moduleQuarantined reports whether m is currently denied installations.
func (f *faultCtl) moduleQuarantined(m *rtti.Module) bool {
	if m == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.qModules[m]
}

// setModuleDenied changes only the install-denial set: module quarantine
// and readmission flip it before sweeping the bindings, and replay of a
// module marker flips only it (the per-binding compile-outs a module
// operation caused are replayed from their own records).
func (d *Dispatcher) setModuleDenied(m *rtti.Module, denied bool) {
	d.faults.mu.Lock()
	if denied {
		d.faults.qModules[m] = true
	} else {
		delete(d.faults.qModules, m)
	}
	d.faults.mu.Unlock()
}

// quarantineModule compiles every binding installed by m out of its
// event's plan and denies the module new installations until
// readmitModule. It returns the number of bindings quarantined. No program
// calls it: the control-plane tests and the replay fuzzer drive it, and
// journal replay re-applies its records.
func (d *Dispatcher) quarantineModule(m *rtti.Module) int {
	if m == nil {
		return 0
	}
	d.setModuleDenied(m, true)
	// Journaled as effects, not intents: one module marker (the
	// install-denial set) plus a per-binding record for every binding the
	// operation actually flips, so replay never re-derives the walk.
	d.record(journal.Record{Kind: journal.KindModuleQuarantine, Module: m.Name()})
	n := 0
	d.sweep(func(t *txn, b *Binding) {
		if b.Installer() == m && t.quarantine(b, 0) {
			n++
		}
	})
	return n
}

// readmitModule lifts a module quarantine: the module may install handlers
// again and its quarantined bindings are compiled back into their events'
// plans. Bindings individually quarantined by their own fault budget are
// governed by their own probation timers and stay out.
func (d *Dispatcher) readmitModule(m *rtti.Module) int {
	if m == nil {
		return 0
	}
	d.setModuleDenied(m, false)
	d.record(journal.Record{Kind: journal.KindModuleReadmit, Module: m.Name()})
	n := 0
	d.sweep(func(t *txn, b *Binding) {
		if b.Installer() == m && b.quarantined.Load() && d.faults.ledger.State(b) != fault.Quarantined {
			t.readmit(b, journal.KindRestore)
			n++
		}
	})
	return n
}
