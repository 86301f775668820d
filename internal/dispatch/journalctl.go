package dispatch

import (
	"fmt"
	"time"

	"spin/internal/journal"
	"spin/internal/rtti"
)

// This file is the dispatcher's journal controller: the bridge between
// the mechanism-free journal (internal/journal) and the dispatch
// machinery. Lifecycle transitions are journaled by the commit that makes
// them (see Event.commit); sampled raise records are drawn on the hot
// path from the dispatcher's journal after each raise. Boot-time replay
// re-drives a sealed journal through the normal control plane
// (ReplayApplier), reconstructing the full
// binding/quarantine/quota/degradation state.
//
// What is deliberately NOT journaled: result handlers, authorizers, and
// imposed guards. Those are authority wiring — code the event's owning
// module runs at boot — not dynamic state; journaling them would record
// function identities the journal cannot resolve. Construction-time
// options (the admission ladder) are configuration the boot image already
// carries; installation quotas are set at runtime with SetQuotas, which is
// journaled.

// WithJournal attaches a lifecycle journal to the dispatcher: every
// binding lifecycle transition is recorded, and raises draw the journal's
// sampled raise records. The journal is fixed at construction; without
// one the raise path pays a single nil check (TestJournalOffZeroAlloc
// enforces that it stays allocation-free).
func WithJournal(j *journal.Journal) Option {
	return func(d *Dispatcher) { d.jrnl = j }
}

// Journal returns the dispatcher's lifecycle journal, or nil.
func (d *Dispatcher) Journal() *journal.Journal { return d.jrnl }

// journalOn reports whether lifecycle emission is active: a journal is
// attached and boot replay is not currently re-driving history (replayed
// operations are already in the journal being replayed; re-emitting them
// would duplicate records with fresh IDs).
func (d *Dispatcher) journalOn() bool { return d.jrnl != nil && !d.jmuted.Load() }

// journalFlags encodes b's shape into install flags.
func journalFlags(b *Binding) uint32 {
	var f uint32
	if b.async {
		f |= journal.FlagAsync
	}
	if b.ephemeral {
		f |= journal.FlagEphemeral
	}
	if b.filter {
		f |= journal.FlagFilter
	}
	if b.intrinsic {
		f |= journal.FlagIntrinsic
	}
	if b.isDefault {
		f |= journal.FlagDefault
	}
	return f
}

// record journals one lifecycle record about b: its install (which
// assigns b its journal ID and carries its shape, ordering, priority and
// deadline), uninstall, ordering change, or quarantine transition (a is
// the quarantine level). dispatch.OrderKind values coincide with the
// journal's ordering encoding (0 unordered, 1 first, 2 last, 3 before,
// 4 after).
func (t *txn) record(kind journal.Kind, b *Binding, a int64) {
	d := t.d
	if !d.journalOn() {
		return
	}
	if kind == journal.KindInstall && b.journalID == 0 {
		b.journalID = d.jseq.Add(1)
	}
	if b.journalID == 0 {
		return
	}
	rec := journal.Record{Kind: kind, ID: b.journalID, Event: t.name, A: a}
	switch kind {
	case journal.KindInstall:
		rec.Flags, rec.Priority, rec.A = journalFlags(b), int32(b.priority), int64(b.deadline)
		fallthrough
	case journal.KindSetOrder:
		rec.Flags |= uint32(b.order.Kind) << journal.OrderShift
		if ref := b.order.Ref; ref != nil {
			rec.RefID = ref.journalID
		}
	}
	if kind != journal.KindSetOrder {
		rec.Handler = b.HandlerName()
		if m := b.Installer(); m != nil {
			rec.Module = m.Name()
		}
	}
	d.jrnl.Record(rec)
}

// record journals a record that belongs to no event: a quota change, a
// module quarantine marker, a degradation transition.
func (d *Dispatcher) record(rec journal.Record) {
	if d.journalOn() {
		d.jrnl.Record(rec)
	}
}

// SetQuotas changes the installation quotas at runtime (zero disables a
// limit) and journals the change, so a replayed boot re-establishes the
// same resource-accounting regime before replaying the installs it
// governed.
func (d *Dispatcher) SetQuotas(perModule, global int) {
	d.quota.mu.Lock()
	d.quota.perModule = perModule
	d.quota.global = global
	d.quota.mu.Unlock()
	d.record(journal.Record{Kind: journal.KindQuota, A: int64(perModule), B: int64(global)})
}

// quarantineBinding compiles b out of its event's dispatch plan without
// involving the fault ledger: the operator (and replay) override. Unlike
// fault-driven quarantine no probation timer is armed; the binding stays
// out until readmitBinding. Returns false if b was already quarantined or
// has left its event (a record after its uninstall could not be replayed).
func (d *Dispatcher) quarantineBinding(b *Binding) bool {
	flipped := false
	if b != nil {
		_ = b.event.commitOn(b, false, func(t *txn) error {
			flipped = t.quarantine(b, 0)
			return nil
		})
	}
	return flipped
}

// readmitBinding compiles a quarantined binding back into its event's
// plan, clearing any fault- or operator-driven quarantine. Returns false
// if b was not quarantined or has left its event.
func (d *Dispatcher) readmitBinding(b *Binding) bool {
	was := false
	if b != nil {
		_ = b.event.commitOn(b, false, func(t *txn) error {
			if was = b.quarantined.Load(); was {
				t.readmit(b, journal.KindRestore)
			}
			return nil
		})
	}
	return was
}

// forceDegradationLevel pins the overload controller at level (0 =
// normal), applying the binding changes and journaling the transition the
// same way load-driven transitions do. It is the operator override and
// the replay path for KindDegrade records; subsequent load observations
// resume normal escalation from the forced level. Returns the transition;
// changed is false when no degradation ladder is configured or the level
// is already current.
func (d *Dispatcher) forceDegradationLevel(level int) (from, to int, changed bool) {
	a := d.admit
	if a.degrader == nil {
		return 0, 0, false
	}
	a.mu.Lock()
	from, to, changed = a.degrader.Force(level)
	a.mu.Unlock()
	if changed {
		a.applyLevel(from, to)
	}
	return from, to, changed
}

// JournalResolve maps a journaled (module, handler) name pair back to
// live handler code for boot-time replay. Handlers are code: the journal
// records identity, not implementation, so the boot image supplies the
// resolver. The returned options should carry only what the journal
// cannot: guards, closures, credentials. Shape (async/ephemeral/filter),
// ordering, priority, and deadlines are reconstructed from the record and
// appended after the resolver's options.
type JournalResolve func(module, handler string) (Handler, []InstallOption, bool)

// ReplayApplier re-drives journal records through the dispatcher's normal
// control plane: installs go through Event.Install (typechecking, quotas,
// authorization, plan recompilation — the same path live installs take),
// quarantines through the operator overrides, degradation through the
// forced-level path. It implements journal.Applier.
type ReplayApplier struct {
	d        *Dispatcher
	resolve  JournalResolve
	mods     map[string]*rtti.Module
	bindings map[uint64]*Binding
}

// newReplayApplier builds an applier over d. Use Dispatcher.ReplayJournal
// for the common whole-journal case; the applier is exported for tests
// and tools that drive journal.Replay themselves.
func newReplayApplier(d *Dispatcher, resolve JournalResolve) *ReplayApplier {
	return &ReplayApplier{
		d:        d,
		resolve:  resolve,
		mods:     make(map[string]*rtti.Module),
		bindings: make(map[uint64]*Binding),
	}
}

// Binding returns the live binding a replayed journal ID mapped to, for
// tests and tools.
func (ra *ReplayApplier) Binding(id uint64) *Binding { return ra.bindings[id] }

// module resolves a module name to its live descriptor, scanning the
// dispatcher's events (authorities and installers) on a miss.
func (ra *ReplayApplier) module(name string) (*rtti.Module, bool) {
	if m, ok := ra.mods[name]; ok {
		return m, true
	}
	for _, e := range ra.d.Events() {
		if m := e.authority; m != nil {
			ra.mods[m.Name()] = m
		}
		for _, b := range e.Bindings() {
			if m := b.Installer(); m != nil {
				ra.mods[m.Name()] = m
			}
		}
	}
	m, ok := ra.mods[name]
	return m, ok
}

// noteID advances the dispatcher's journal ID counter past id, so
// bindings installed after replay never collide with replayed IDs.
func (ra *ReplayApplier) noteID(id uint64) {
	for {
		cur := ra.d.jseq.Load()
		if cur >= id || ra.d.jseq.CompareAndSwap(cur, id) {
			return
		}
	}
}

// Apply implements journal.Applier.
func (ra *ReplayApplier) Apply(rec journal.Record) error {
	d := ra.d
	var b *Binding
	switch rec.Kind {
	case journal.KindUninstall, journal.KindSetOrder, journal.KindQuarantine, journal.KindProbation, journal.KindRestore:
		if b = ra.bindings[rec.ID]; b == nil {
			return fmt.Errorf("%s of unknown binding %d", rec.Kind, rec.ID)
		}
	}
	switch rec.Kind {
	case journal.KindInstall:
		return ra.applyInstall(rec)
	case journal.KindUninstall:
		delete(ra.bindings, rec.ID)
		if b.isDefault {
			return b.event.SetDefaultHandler(Handler{})
		}
		return b.event.Uninstall(b)
	case journal.KindSetOrder:
		o := Order{Kind: OrderKind(journal.OrderKind(rec.Flags))}
		if o.Kind == OrderBefore || o.Kind == OrderAfter {
			if o.Ref = ra.bindings[rec.RefID]; o.Ref == nil {
				return fmt.Errorf("set-order of %d against unknown binding %d", rec.ID, rec.RefID)
			}
		}
		return b.event.SetOrder(b, o)
	case journal.KindQuarantine:
		d.quarantineBinding(b)
		return nil
	case journal.KindProbation, journal.KindRestore:
		d.readmitBinding(b)
		return nil
	case journal.KindModuleQuarantine, journal.KindModuleReadmit:
		m, ok := ra.module(rec.Module)
		if !ok {
			return fmt.Errorf("unknown module %q", rec.Module)
		}
		d.setModuleDenied(m, rec.Kind == journal.KindModuleQuarantine)
		return nil
	case journal.KindDegrade:
		if d.admit.degrader == nil {
			if rec.B == 0 {
				return nil
			}
			return fmt.Errorf("journaled degradation level %d but no ladder configured", rec.B)
		}
		d.forceDegradationLevel(int(rec.B))
		return nil
	case journal.KindQuota:
		d.SetQuotas(int(rec.A), int(rec.B))
		return nil
	case journal.KindRaise:
		// A statistical sample: nothing to re-drive.
		return nil
	}
	return fmt.Errorf("unexpected record kind %v", rec.Kind)
}

// applyInstall replays one install record: intrinsic installs bind the
// journal ID to the binding DefineEvent already created; default and
// regular installs resolve the handler and re-drive the live install
// path. The replayed binding adopts the record's ID.
func (ra *ReplayApplier) applyInstall(rec journal.Record) error {
	e, ok := ra.d.Lookup(rec.Event)
	if !ok {
		return fmt.Errorf("unknown event %q", rec.Event)
	}
	ra.noteID(rec.ID)
	b, err := ra.install(e, rec)
	if err != nil {
		return err
	}
	ra.bindings[rec.ID] = b
	return e.commitOn(b, false, func(*txn) error {
		if b.journalID == 0 {
			b.journalID = rec.ID
		}
		return nil
	})
}

// install re-drives one install record through the live control plane.
func (ra *ReplayApplier) install(e *Event, rec journal.Record) (*Binding, error) {
	if rec.Flags&journal.FlagIntrinsic != 0 {
		// DefineEvent installed the intrinsic; the record names it.
		e.mu.Lock()
		b := e.intrinsic
		e.mu.Unlock()
		if b == nil {
			return nil, fmt.Errorf("event %q has no intrinsic binding", rec.Event)
		}
		return b, nil
	}
	h, ropts, ok := ra.resolve(rec.Module, rec.Handler)
	if !ok {
		return nil, fmt.Errorf("no handler for %s.%s (resolver)", rec.Module, rec.Handler)
	}
	if rec.Flags&journal.FlagDefault != 0 {
		if err := e.SetDefaultHandler(h); err != nil {
			return nil, err
		}
		return e.defaultBinding(), nil
	}
	opts := append([]InstallOption(nil), ropts...)
	if rec.Flags&journal.FlagAsync != 0 {
		opts = append(opts, Async())
		if rec.A > 0 && rec.Flags&journal.FlagEphemeral == 0 {
			opts = append(opts, WithDeadline(time.Duration(rec.A)))
		}
	}
	if rec.Flags&journal.FlagEphemeral != 0 {
		opts = append(opts, Ephemeral(time.Duration(rec.A)))
	}
	if rec.Flags&journal.FlagFilter != 0 {
		opts = append(opts, AsFilter())
	}
	if rec.Priority != 0 {
		opts = append(opts, WithPriority(int(rec.Priority)))
	}
	switch journal.OrderKind(rec.Flags) {
	case int(OrderFirst):
		opts = append(opts, First())
	case int(OrderLast):
		opts = append(opts, Last())
	case int(OrderBefore), int(OrderAfter):
		ref := ra.bindings[rec.RefID]
		if ref == nil {
			return nil, fmt.Errorf("install %d orders against unknown binding %d", rec.ID, rec.RefID)
		}
		if journal.OrderKind(rec.Flags) == int(OrderBefore) {
			opts = append(opts, Before(ref))
		} else {
			opts = append(opts, After(ref))
		}
	}
	return e.Install(h, opts...)
}

// ReplayJournal reconstructs the dispatcher's binding, quarantine, quota,
// and degradation state from a journal byte snapshot: sealed records are
// re-driven in order through the normal control plane, with lifecycle
// emission muted so replayed operations are not re-journaled. Only the
// sealed (fsynced, chain-verified) prefix is applied; an unsealed crash
// tail is reported in the summary but never trusted. The returned applier
// maps journal IDs to the live bindings replay created.
func (d *Dispatcher) ReplayJournal(data []byte, resolve JournalResolve) (*ReplayApplier, journal.Summary, error) {
	ra := newReplayApplier(d, resolve)
	d.jmuted.Store(true)
	defer d.jmuted.Store(false)
	sum, err := journal.Replay(data, ra)
	return ra, sum, err
}
