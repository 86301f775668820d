package dispatch

import (
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
// plan compiled with protection delivers recovered panics and metered
// handler costs here; the controller turns the ledger's verdicts into plan
// recompilations (quarantine, readmission) published through the same
// atomic swap installs use.
//
// Lock order: the ledger's mutex is never held while an event's mutex is
// taken — Observe returns an Action and the controller acts on it
// afterwards; the ledger is consulted under an event's mutex, as Uninstall
// does. Readmission and probation timers run through
// Dispatcher.afterFunc, so the whole lifecycle is deterministic under the
// simulator.
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
func (f *faultCtl) HandlerPanic(tag, val any, stack []byte) {
	b, _ := tag.(*Binding)
	f.observe(b, fault.Record{
		Kind:   fault.KindPanic,
		Origin: fault.OriginHandler,
		Value:  val,
		Stack:  stack,
	})
}

// GuardPanic implements codegen.FaultHook for out-of-line guard panics.
// The purity monitor reports a mutating FUNCTIONAL guard by panicking
// ErrGuardMutatedArgs; that is a raiser-visible contract violation, not an
// extension fault, so it is re-panicked to surface at the raise point.
func (f *faultCtl) GuardPanic(tag, val any, stack []byte) {
	if val == ErrGuardMutatedArgs {
		panic(val)
	}
	b, _ := tag.(*Binding)
	f.observe(b, fault.Record{
		Kind:   fault.KindPanic,
		Origin: fault.OriginGuard,
		Value:  val,
		Stack:  stack,
	})
}

// SyncCost implements codegen.FaultHook: the metered virtual-time cost of
// one synchronous handler invocation. Costs above the policy's SyncBudget
// are budgeted overrun faults.
func (f *faultCtl) SyncCost(tag any, cost vtime.Duration) {
	if f.policy.SyncBudget <= 0 || cost <= f.policy.SyncBudget {
		return
	}
	b, _ := tag.(*Binding)
	f.observe(b, fault.Record{
		Kind:   fault.KindOverrun,
		Origin: fault.OriginHandler,
		Cost:   cost,
	})
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

// asyncDeadline resolves the watchdog deadline for an asynchronous
// invocation of b: the binding's own (WithDeadline), else the policy-wide
// AsyncDeadline, else none.
func (f *faultCtl) asyncDeadline(b *Binding) time.Duration {
	if b != nil && b.deadline > 0 {
		return b.deadline
	}
	return f.policy.AsyncDeadline
}

// observe stamps the record with the binding's identity, charges it
// against the ledger, and carries out whatever action the ledger returns.
func (f *faultCtl) observe(b *Binding, r fault.Record) {
	var key, modKey any
	var mod *rtti.Module
	if b != nil {
		key = b
		r.Event = b.event.name
		r.Handler = b.HandlerName()
		if mod = b.Installer(); mod != nil {
			r.Module = mod.Name()
			modKey = mod
		}
	}
	if t := f.d.tracer; t != nil {
		t.Fault(r.Event, r.Handler, uint64(r.Kind))
	}
	act := f.ledger.Observe(key, modKey, r)
	if b == nil {
		return
	}
	if act.Module && mod != nil {
		f.quarantineModule(mod, act)
		return
	}
	if act.Quarantine {
		f.quarantine(b, act)
	}
}

// quarantine compiles b out of its event's plan and schedules probation
// after the action's backoff. Like every lifecycle transition it commits
// under the event's mutex — recompile, span and journal record together —
// so the journal orders it against a concurrent Uninstall the way the
// event did. A binding that faulted on its way out (it uninstalled itself,
// or lost the race to an uninstall) is no longer the ledger's business: a
// quarantine record after its uninstall record would make the journal
// unreplayable.
func (f *faultCtl) quarantine(b *Binding, act fault.Action) {
	e := b.event
	e.mu.Lock()
	if !b.installed {
		f.ledger.Forget(b) // the entry this fault re-created after Uninstall dropped it
		e.mu.Unlock()
		return
	}
	already := b.quarantined.Swap(true)
	if !already {
		e.recompile(false)
		if t := f.d.tracer; t != nil {
			t.Quarantine(e.name, b.HandlerName(), act.Level)
		}
		f.d.journalBinding(journal.KindQuarantine, b, int64(act.Level))
	}
	e.mu.Unlock()
	if !already {
		f.d.afterFunc(act.Backoff, func() { f.readmit(b) })
	}
}

// readmit moves a quarantined binding to probation: its entry is compiled
// back into the plan with a tightened budget, and a clean probation period
// restores it to full health. A binding uninstalled while quarantined has
// been forgotten by the ledger, so the timer finds nothing to do.
func (f *faultCtl) readmit(b *Binding) {
	e := b.event
	e.mu.Lock()
	ok := b.installed && f.ledger.Readmit(b)
	if ok {
		if b.quarantined.Swap(false) {
			e.recompile(false)
		}
		if t := f.d.tracer; t != nil {
			t.Probation(e.name, b.HandlerName(), false)
		}
		f.d.journalBinding(journal.KindProbation, b, 0)
	}
	e.mu.Unlock()
	if ok {
		f.d.afterFunc(f.policy.Probation, func() { f.restore(b) })
	}
}

// restore ends a clean probation period.
func (f *faultCtl) restore(b *Binding) {
	e := b.event
	e.mu.Lock()
	defer e.mu.Unlock()
	if b.installed && f.ledger.Restore(b) {
		if t := f.d.tracer; t != nil {
			t.Probation(e.name, b.HandlerName(), true)
		}
		f.d.journalBinding(journal.KindRestore, b, 0)
	}
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

// quarantineModule is the ledger-triggered module quarantine: the module's
// fault budget ran out, so every binding it installed is compiled out and
// readmission is scheduled after the action's backoff.
func (f *faultCtl) quarantineModule(m *rtti.Module, act fault.Action) {
	f.d.QuarantineModule(m)
	if t := f.d.tracer; t != nil {
		t.Quarantine("*", m.Name(), act.Level)
	}
	f.d.afterFunc(act.Backoff, func() {
		f.d.ReadmitModule(m)
		f.d.afterFunc(f.policy.Probation, func() { f.ledger.Restore(m) })
	})
}

// QuarantineModule compiles every binding installed by m out of its
// event's plan and denies the module new installations until
// ReadmitModule. It returns the number of bindings quarantined. Kernels
// call this when a linker domain is quarantined; the fault controller
// calls it when a module exhausts its module-level fault budget.
func (d *Dispatcher) QuarantineModule(m *rtti.Module) int {
	if m == nil {
		return 0
	}
	d.faults.mu.Lock()
	d.faults.qModules[m] = true
	d.faults.mu.Unlock()
	// Journaled as effects, not intents: one module marker (the
	// install-denial set) plus a per-binding record for every binding the
	// operation actually flips, so replay never re-derives the walk.
	d.journalModule(journal.KindModuleQuarantine, m, 0)
	n := 0
	for _, e := range d.Events() {
		e.mu.Lock()
		changed := false
		for _, b := range e.bindings {
			if b.Installer() == m && !b.quarantined.Swap(true) {
				n++
				changed = true
				d.journalBinding(journal.KindQuarantine, b, 0)
			}
		}
		if changed {
			e.recompile(false)
		}
		e.mu.Unlock()
	}
	return n
}

// ReadmitModule lifts a module quarantine: the module may install handlers
// again and its quarantined bindings are compiled back into their events'
// plans. Bindings individually quarantined by their own fault budget are
// governed by their own probation timers and stay out.
func (d *Dispatcher) ReadmitModule(m *rtti.Module) int {
	if m == nil {
		return 0
	}
	d.faults.mu.Lock()
	delete(d.faults.qModules, m)
	d.faults.mu.Unlock()
	// Move the module's ledger entry (if the module budget put it there)
	// to probation, so a relapse can re-quarantine at the next level.
	d.faults.ledger.Readmit(m)
	d.journalModule(journal.KindModuleReadmit, m, 0)
	n := 0
	for _, e := range d.Events() {
		e.mu.Lock()
		changed := false
		for _, b := range e.bindings {
			if b.Installer() != m || !b.quarantined.Load() {
				continue
			}
			if d.faults.ledger.State(b) == fault.Quarantined {
				continue // individual quarantine outlives the module's
			}
			b.quarantined.Store(false)
			n++
			changed = true
			d.journalBinding(journal.KindRestore, b, 0)
		}
		if changed {
			e.recompile(false)
		}
		e.mu.Unlock()
	}
	return n
}

// ModuleQuarantined reports whether m is currently under module-level
// quarantine.
func (d *Dispatcher) ModuleQuarantined(m *rtti.Module) bool {
	return d.faults.moduleQuarantined(m)
}
