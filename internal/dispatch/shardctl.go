package dispatch

import (
	"fmt"

	"spin/internal/journal"
)

// This file is the dispatcher's migration surface: the operator-path
// primitives the shard router (internal/shard) composes into its move
// protocol when online resharding transfers an event from one dispatcher
// shard to another. Like QuarantineBinding/ReadmitBinding they bypass the
// event's authorizer — a shard move is infrastructure relocating state it
// already holds, not a module requesting new rights — but they journal
// through the normal emission paths so each shard's journal remains
// independently replayable.

// DefaultBinding returns the event's default-handler binding, or nil when
// no default handler is installed.
func (e *Event) DefaultBinding() *Binding {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.defaultB
}

// MigrateControls copies the authority wiring — result handler and
// authorizer — from src onto e and republishes e's plan. Authority wiring
// is code, not journaled state (see journalctl.go); a shard move carries
// it across dispatchers directly.
func (e *Event) MigrateControls(src *Event) {
	src.mu.Lock()
	rf, auth := src.resultFn, src.authorizer
	src.mu.Unlock()
	e.mu.Lock()
	e.resultFn = rf
	e.authorizer = auth
	e.recompile(false)
	e.mu.Unlock()
}

// MigrateImposedGuards attaches authority-imposed guards to b without an
// authority proof: the move protocol re-imposes on the destination binding
// exactly what the authority had imposed on the source binding, so a shard
// move cannot shed restrictions the authority placed. Uncharged, like the
// other operator recompiles.
func (e *Event) MigrateImposedGuards(b *Binding, gs []Guard) error {
	if b == nil || b.event != e {
		return ErrNotInstalled
	}
	if len(gs) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !b.installed {
		return ErrNotInstalled
	}
	b.setImposed(append(b.imposed, gs...))
	e.recompile(false)
	return nil
}

// RemoveEvent retires a defined event: every binding (intrinsic, regular,
// default) is uninstalled with its quotas released and fault-ledger entry
// dropped, the uninstalls are journaled, and the name is freed for
// redefinition. It is the source half of a shard move (the destination
// re-defines the event); there is no authorization check, matching the
// operator overrides. The event's last compiled plan deliberately stays
// published: a raise that resolved its route before the move finishes on
// the handlers it targeted — the shard router's dual-route window — just
// as raises in flight across any plan swap finish on the plan they
// loaded.
func (d *Dispatcher) RemoveEvent(name string) error {
	d.mu.Lock()
	e, ok := d.events[name]
	if ok {
		delete(d.events, name)
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("dispatch: remove of undefined event %s", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, b := range e.bindings {
		b.installed = false
		if !b.intrinsic {
			e.releaseQuotasLocked(b)
		}
		d.faults.ledger.Forget(b)
		d.journalBinding(journal.KindUninstall, b, 0)
	}
	e.bindings = nil
	e.intrinsic = nil
	if old := e.defaultB; old != nil {
		e.defaultB = nil
		old.installed = false
		d.faults.ledger.Forget(old)
		d.journalBinding(journal.KindUninstall, old, 0)
	}
	return nil
}

// JournalShardMove emits the resharding audit marker: event moved from
// shard A to shard B. The router records it on both the source and the
// destination shard's journal, bracketing the uninstalls and re-installs
// the move itself emits, so each journal explains why a population of
// bindings departed or arrived.
func (d *Dispatcher) JournalShardMove(event string, from, to int) {
	if !d.journalOn() {
		return
	}
	d.jrnl.Record(journal.Record{
		Kind:  journal.KindShardMove,
		Event: event,
		A:     int64(from),
		B:     int64(to),
	})
}
