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
// already holds, not a module requesting new rights — but they commit like
// every other control operation, so each shard's journal remains
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
	_ = e.commit(false, func(t *txn) error {
		t.resultFn, t.authorizer = rf, auth
		t.stale = true
		return nil
	})
}

// MigrateImposedGuards attaches authority-imposed guards to b without an
// authority proof: the move protocol re-imposes on the destination binding
// exactly what the authority had imposed on the source binding, so a shard
// move cannot shed restrictions the authority placed. Uncharged, like the
// other operator recompiles.
func (e *Event) MigrateImposedGuards(b *Binding, gs []Guard) error {
	return e.commitOn(b, false, func(t *txn) error {
		if len(gs) > 0 {
			b.setImposed(append(b.imposed, gs...))
			t.stale = true
		}
		return nil
	})
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
	delete(d.events, name)
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("dispatch: remove of undefined event %s", name)
	}
	return e.commit(false, func(t *txn) error {
		for len(t.bindings) > 0 {
			t.retire(t.bindings[0])
		}
		if t.defaultB != nil {
			t.retire(t.defaultB)
		}
		t.intrinsic = nil
		t.stale = false // the last plan stays published (above)
		return nil
	})
}

// JournalShardMove emits the resharding audit marker: event moved from
// shard A to shard B. The router records it on both the source and the
// destination shard's journal, bracketing the uninstalls and re-installs
// the move itself emits, so each journal explains why a population of
// bindings departed or arrived.
func (d *Dispatcher) JournalShardMove(event string, from, to int) {
	d.record(journal.Record{Kind: journal.KindShardMove, Event: event, A: int64(from), B: int64(to)})
}
