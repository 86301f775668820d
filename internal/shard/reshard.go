package shard

import (
	"fmt"
	"sort"

	"spin/internal/dispatch"
	"spin/internal/fault"
)

// Online resharding. Reshard(n) rebuilds the ring for n shards and
// migrates exactly the events whose owner changed — the consistent-hash
// guarantee: growth moves only events captured by the new shards' virtual
// nodes, shrinkage only the departing shards' population.
//
// The move protocol for one event, under the handle's control mutex (so
// it excludes installs, never raises):
//
//  1. snapshot the source: signature, intrinsic/owner, bindings in
//     dispatch order with their full installation shape, default handler,
//     admission policy;
//  2. journal a KindShardMove marker on both shards, bracketing what
//     follows;
//  3. re-define the event on the destination and reinstall every binding
//     through the normal install path (journaled, quota-charged,
//     typechecked on the destination), re-imposing authority guards,
//     re-quarantining what was quarantined, and transferring each
//     binding's fault-ledger entry so budgets survive the move;
//  4. carry the authority wiring (result handler, authorizer) over;
//  5. publish the new route with one atomic store — the dual-route
//     window: raises that already resolved the old route finish on the
//     source's still-published plan;
//  6. retire the source event (journaled uninstalls, quotas released).
//
// What does not survive a move, by design: admission-queue ledgers (the
// destination queue starts empty — the ledger is per-shard state, which
// is the point of sharding), degradation flags (the destination's own
// overload controller re-derives them from its load), and pending
// probation timers (the transferred fault entry re-arms on the next
// fault).

// Reshard grows or shrinks the plane to n shards, migrating the events
// whose ring owner changed, in name order (deterministic journals). It
// returns the number of events moved.
func (r *Router) Reshard(n int) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("shard: reshard to %d shards", n)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for id := len(r.shards); id < n; id++ {
		d := r.newShard(id)
		if d == nil {
			return 0, fmt.Errorf("shard: NewShard(%d) returned nil", id)
		}
		r.shards = append(r.shards, &Shard{id: id, d: d})
	}
	next := buildRing(n, r.replicas)

	names := make([]string, 0, len(r.events))
	for name := range r.events {
		names = append(names, name)
	}
	sort.Strings(names)

	moved := 0
	for _, name := range names {
		e := r.events[name]
		from := e.loadRoute().s
		to := r.shards[next.owner(name)]
		if to == from {
			continue
		}
		if err := moveEvent(e, from, to); err != nil {
			// The ring keeps its old shape: unmoved events still route
			// where they live. The failed event itself was not swapped.
			return moved, fmt.Errorf("shard: moving %s from %d to %d: %w", name, from.id, to.id, err)
		}
		moved++
		r.moves++
	}
	r.ring = next
	if n < len(r.shards) {
		// Departing shards are empty now; drop them from the plane. Their
		// dispatchers retain only retired events' drained plans.
		r.shards = r.shards[:n]
	}
	return moved, nil
}

// moveEvent migrates one event between shards. Caller holds the router
// mutex; the handle's control mutex is taken here, so concurrent installs
// either complete before the snapshot or land on the destination.
func moveEvent(e *Event, from, to *Shard) error {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()

	src := e.loadRoute().ctl
	fromD, toD := from.Dispatcher(), to.Dispatcher()
	fromD.JournalShardMove(e.name, from.id, to.id)
	toD.JournalShardMove(e.name, from.id, to.id)

	// Snapshot and re-define. The intrinsic handler travels as a define
	// option so the destination event keeps intrinsic semantics (bypass
	// plan, authority from the defining module).
	bindings := src.Bindings()
	intrinsic := src.IntrinsicBinding()
	var defOpts []dispatch.EventOption
	if intrinsic != nil {
		defOpts = append(defOpts, dispatch.WithIntrinsic(intrinsic.Handler()))
	} else if m := src.Authority(); m != nil {
		defOpts = append(defOpts, dispatch.WithOwner(m))
	}
	if src.Async() {
		defOpts = append(defOpts, dispatch.AsAsync())
	}
	dst, err := defineOn(to, e.name, src.Signature(), defOpts...)
	if err != nil {
		return err
	}

	// Reinstall in dispatch order. The intrinsic binding already sits on
	// the destination list; earlier bindings insert before it, later ones
	// append, reproducing the snapshot order positionally.
	newIntrinsic := dst.IntrinsicBinding()
	beforeIntrinsic := intrinsic != nil
	for _, ob := range bindings {
		if ob == intrinsic {
			beforeIntrinsic = false
			e.remapLocked(ob, newIntrinsic, fromD, toD)
			continue
		}
		opts := installOptions(ob)
		if beforeIntrinsic {
			opts = append(opts, dispatch.Before(newIntrinsic))
		}
		nb, err := dst.Install(ob.Handler(), opts...)
		if err != nil {
			return err
		}
		if imp := ob.ImposedGuards(); len(imp) > 0 {
			if err := dst.MigrateImposedGuards(nb, imp); err != nil {
				return err
			}
		}
		if ob.Quarantined() {
			toD.QuarantineBinding(nb)
		}
		e.remapLocked(ob, nb, fromD, toD)
	}
	if db := src.DefaultBinding(); db != nil {
		if err := dst.SetDefaultHandler(db.Handler()); err != nil {
			return err
		}
		e.remapLocked(db, dst.DefaultBinding(), fromD, toD)
	}
	if q := src.AdmissionQueue(); q != nil {
		pol := q.Policy()
		dst.SetAdmission(&pol)
	}
	// Authority wiring last, so the destination authorizer cannot veto
	// the reinstallation of bindings the source authorizer already
	// admitted.
	dst.MigrateControls(src)

	// Swap the route and retire the source. Raises that resolved the old
	// route drain on the source's still-published plan and may count
	// themselves after this point, so the source's counters are not
	// snapshotted: Stats keeps reading them live.
	e.storeRoute(to, dst)
	e.departed = append(e.departed, src)
	return fromD.RemoveEvent(src.Name())
}

// remapLocked re-points a front binding handle at its reinstalled twin and
// moves the fault-ledger entry with it. Caller holds e.ctlMu.
func (e *Event) remapLocked(ob, nb *dispatch.Binding, fromD, toD *dispatch.Dispatcher) {
	fault.Transfer(fromD.FaultLedger(), toD.FaultLedger(), ob, nb)
	wb, ok := e.binds[ob]
	if !ok || nb == nil {
		return
	}
	delete(e.binds, ob)
	wb.baseFired += ob.Fired()
	wb.cur.Store(nb)
	e.binds[nb] = wb
}

// installOptions reconstructs the installation shape of an existing
// binding for reinstallation on another dispatcher. Ordering is handled
// positionally by the caller; quarantine, imposed guards, and fault state
// are re-applied separately.
func installOptions(ob *dispatch.Binding) []dispatch.InstallOption {
	var opts []dispatch.InstallOption
	if clo := ob.Closure(); clo != nil {
		opts = append(opts, dispatch.WithClosure(clo))
	}
	for _, g := range ob.Guards() {
		opts = append(opts, dispatch.WithGuard(g))
	}
	if ob.Async() {
		opts = append(opts, dispatch.Async())
		if d := ob.Deadline(); d > 0 && !ob.Ephemeral() {
			opts = append(opts, dispatch.WithDeadline(d))
		}
	}
	if ob.Ephemeral() {
		opts = append(opts, dispatch.Ephemeral(ob.Deadline()))
	}
	if ob.Filter() {
		opts = append(opts, dispatch.AsFilter())
	}
	if c := ob.Credential(); c != nil {
		opts = append(opts, dispatch.WithCredential(c))
	}
	if p := ob.Priority(); p != 0 {
		opts = append(opts, dispatch.WithPriority(p))
	}
	return opts
}
