package shard

import (
	"sync"
	"sync/atomic"

	"spin/internal/admit"
	"spin/internal/dispatch"
	"spin/internal/rtti"
)

// route is an Event's pinned placement, published atomically the way
// dispatch plans are: a raise loads it once and commits — a concurrent
// move cannot strand it halfway. ctl is the underlying dispatch event
// (the control-plane target, and the data plane too when the shard is
// local); local is ctl for local shards and nil for remote ones, so the
// raise fast path is one load and one nil check before delegating to the
// dispatcher's own 0-alloc entry points.
type route struct {
	s     *Shard
	ctl   *dispatch.Event
	local *dispatch.Event
}

// Event is the routed front handle: the same raise/install surface as
// dispatch.Event, with the owning shard resolved at definition time and
// re-pinned only by resharding. Raises are lock-free against the published
// route; control-plane operations serialize on the handle's mutex, which
// is also what a move holds while it migrates the event — so installs
// observed by a move are complete, and installs after it land on the new
// shard.
type Event struct {
	r    *Router
	name string

	route atomic.Pointer[route]

	// ctlMu orders control-plane operations against moves. Never taken on
	// a raise.
	ctlMu sync.Mutex
	// binds maps the live underlying bindings to their front handles so a
	// move can re-point every handle at its reinstalled twin. Guarded by
	// ctlMu.
	binds map[*dispatch.Binding]*Binding
	// departed are the event's previous shard residencies; Stats() adds
	// their counters to the current shard's. They are read live rather
	// than snapshotted at the move: a raise that resolved its route before
	// a move counts itself on the departed residency after it, and a
	// snapshot would lose it. One retired event is kept per move. Guarded
	// by ctlMu.
	departed []*dispatch.Event
}

// Binding is the routed front handle for one installation. It follows its
// event across shard moves: the underlying dispatch.Binding is republished
// atomically when a move reinstalls it on the destination.
type Binding struct {
	ev        *Event
	cur       atomic.Pointer[dispatch.Binding]
	baseFired int64 // firings on previous shards; guarded by ev.ctlMu
}

// Raw returns the current underlying binding. It is only stable while no
// reshard runs; control-plane callers composing dispatch options (Before,
// After) should do so and install within one control-plane call sequence.
func (b *Binding) Raw() *dispatch.Binding { return b.cur.Load() }

// HandlerName returns the handler procedure's qualified name.
func (b *Binding) HandlerName() string { return b.cur.Load().HandlerName() }

// Installed reports whether the binding is on its event's handler list.
func (b *Binding) Installed() bool { return b.cur.Load().Installed() }

// Quarantined reports whether the binding is compiled out of the plan.
func (b *Binding) Quarantined() bool { return b.cur.Load().Quarantined() }

// Fired reports the handler's firings across every shard residency.
func (b *Binding) Fired() int64 {
	b.ev.ctlMu.Lock()
	defer b.ev.ctlMu.Unlock()
	return b.baseFired + b.cur.Load().Fired()
}

func (e *Event) loadRoute() *route { return e.route.Load() }

func (e *Event) storeRoute(s *Shard, ctl *dispatch.Event) {
	rt := &route{s: s, ctl: ctl}
	if s.rs == nil {
		rt.local = ctl
	}
	e.route.Store(rt)
}

// Name returns the event's router-level name (unprefixed).
func (e *Event) Name() string { return e.name }

// Signature returns the event's procedure signature.
func (e *Event) Signature() rtti.Signature { return e.loadRoute().ctl.Signature() }

// Shard returns the shard currently owning the event.
func (e *Event) Shard() *Shard { return e.loadRoute().s }

// Underlying returns the current underlying dispatch event, for tests and
// tools; like Binding.Raw it is stable only while no reshard runs.
func (e *Event) Underlying() *dispatch.Event { return e.loadRoute().ctl }

// Raise announces the event on its shard. Local shards dispatch in
// process with full result semantics; on a remote shard the raise enters
// the peer's pipeline (retries, dedup, breaker) and the result is nil —
// remote raise verdicts are asynchronous, as in internal/remote.
func (e *Event) Raise(args ...any) (any, error) {
	rt := e.route.Load()
	if rt.local != nil {
		return rt.local.Raise(args...)
	}
	return nil, rt.s.rs.Peer.Raise(e.name, args...)
}

// RaiseAsync raises the event asynchronously (remote raises already are).
func (e *Event) RaiseAsync(args ...any) error {
	rt := e.route.Load()
	if rt.local != nil {
		return rt.local.RaiseAsync(args...)
	}
	return rt.s.rs.Peer.Raise(e.name, args...)
}

// Raise0 raises a no-parameter event through the shard's 0-alloc path.
func (e *Event) Raise0() (any, error) {
	rt := e.route.Load()
	if rt.local != nil {
		return rt.local.Raise0()
	}
	return nil, rt.s.rs.Peer.Raise(e.name)
}

// Raise1 raises the event with one argument; on a local shard this is the
// dispatcher's pooled 0-alloc fast path with one extra atomic load for the
// pinned route.
func (e *Event) Raise1(a1 any) (any, error) {
	rt := e.route.Load()
	if rt.local != nil {
		return rt.local.Raise1(a1)
	}
	return nil, rt.s.rs.Peer.Raise(e.name, a1)
}

// Raise2 raises the event with two arguments.
func (e *Event) Raise2(a1, a2 any) (any, error) {
	rt := e.route.Load()
	if rt.local != nil {
		return rt.local.Raise2(a1, a2)
	}
	return nil, rt.s.rs.Peer.Raise(e.name, a1, a2)
}

// Raise3 raises the event with three arguments.
func (e *Event) Raise3(a1, a2, a3 any) (any, error) {
	rt := e.route.Load()
	if rt.local != nil {
		return rt.local.Raise3(a1, a2, a3)
	}
	return nil, rt.s.rs.Peer.Raise(e.name, a1, a2, a3)
}

// Raise4 raises the event with four arguments.
func (e *Event) Raise4(a1, a2, a3, a4 any) (any, error) {
	rt := e.route.Load()
	if rt.local != nil {
		return rt.local.Raise4(a1, a2, a3, a4)
	}
	return nil, rt.s.rs.Peer.Raise(e.name, a1, a2, a3, a4)
}

// Raise5 raises the event with five arguments.
func (e *Event) Raise5(a1, a2, a3, a4, a5 any) (any, error) {
	rt := e.route.Load()
	if rt.local != nil {
		return rt.local.Raise5(a1, a2, a3, a4, a5)
	}
	return nil, rt.s.rs.Peer.Raise(e.name, a1, a2, a3, a4, a5)
}

// RaiseBatch1 announces the event once per element of flat through the
// shard's vectorized ingress; a remote shard degrades to per-frame peer
// raises (the wire pipeline is the batch amortization there).
func (e *Event) RaiseBatch1(flat []any) dispatch.BatchOutcome {
	rt := e.route.Load()
	if rt.local != nil {
		return rt.local.RaiseBatch1(flat)
	}
	var out dispatch.BatchOutcome
	for _, a := range flat {
		if err := rt.s.rs.Peer.Raise(e.name, a); err != nil {
			out.Shed++
		} else {
			out.Raised++
		}
	}
	return out
}

// Install registers a handler on the event's current shard. The options
// are the dispatcher's own; ordering references (Before/After) must name
// raw bindings obtained from handles of this same event.
func (e *Event) Install(h dispatch.Handler, opts ...dispatch.InstallOption) (*Binding, error) {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	db, err := e.loadRoute().ctl.Install(h, opts...)
	if err != nil {
		return nil, err
	}
	return e.adoptLocked(db), nil
}

// adoptLocked wraps an underlying binding, registering it for re-pointing
// on moves. Caller holds ctlMu.
func (e *Event) adoptLocked(db *dispatch.Binding) *Binding {
	if wb, ok := e.binds[db]; ok {
		return wb
	}
	wb := &Binding{ev: e}
	wb.cur.Store(db)
	e.binds[db] = wb
	return wb
}

// Uninstall removes a binding installed through this handle.
func (e *Event) Uninstall(b *Binding) error {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	db := b.cur.Load()
	if err := e.loadRoute().ctl.Uninstall(db); err != nil {
		return err
	}
	delete(e.binds, db)
	return nil
}

// IntrinsicBinding returns the routed handle for the event's intrinsic
// binding, or nil if none is installed.
func (e *Event) IntrinsicBinding() *Binding {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	db := e.loadRoute().ctl.IntrinsicBinding()
	if db == nil {
		return nil
	}
	return e.adoptLocked(db)
}

// SetDefaultHandler installs (or, with an empty Handler, clears) the
// event's default handler on its current shard.
func (e *Event) SetDefaultHandler(h dispatch.Handler) error {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	return e.loadRoute().ctl.SetDefaultHandler(h)
}

// SetResultHandler installs the result-merging function.
func (e *Event) SetResultHandler(fn dispatch.ResultFn) error {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	return e.loadRoute().ctl.SetResultHandler(fn)
}

// SetAdmission gives the event a bounded admission queue on its current
// shard (moves re-create the queue, with a fresh ledger, on the
// destination).
func (e *Event) SetAdmission(pol *admit.Policy) {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	e.loadRoute().ctl.SetAdmission(pol)
}

// InstallAuthorizer installs the event's authorizer; moves carry it to the
// destination shard.
func (e *Event) InstallAuthorizer(fn dispatch.AuthorizerFn, proof *rtti.Module) error {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	return e.loadRoute().ctl.InstallAuthorizer(fn, proof)
}

// Stats reports the event's dispatch statistics accumulated across every
// shard residency: the live counters of the shards the event has departed
// plus the current shard's.
func (e *Event) Stats() dispatch.Stats {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	st := e.loadRoute().ctl.Stats()
	for _, d := range e.departed {
		ds := d.Stats()
		st.Raised += ds.Raised
		st.Fired += ds.Fired
		st.Time += ds.Time
	}
	return st
}

// AdmissionQueue returns the admission queue compiled into the event's
// current plan, or nil.
func (e *Event) AdmissionQueue() *admit.Queue {
	return e.loadRoute().ctl.AdmissionQueue()
}
