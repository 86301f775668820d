package shard

import (
	"fmt"
	"sync"

	"spin/internal/admit"
	"spin/internal/dispatch"
	"spin/internal/rtti"
)

// Config assembles a Router.
type Config struct {
	// Shards is the shard count (minimum 1).
	Shards int
	// NewShard constructs the dispatcher for shard id. Each call must
	// return a distinct dispatcher — the shard's own admission pool, fault
	// ledger, quota accounting, and (if configured) journal stream are
	// whatever the returned dispatcher owns. Nil selects dispatch.New()
	// with no options.
	NewShard func(id int) *dispatch.Dispatcher
}

// Shard is one slot of the routing plane: a dispatcher that is its own
// failure and contention domain.
type Shard struct {
	id int
	d  *dispatch.Dispatcher
}

// ID returns the shard's slot index.
func (s *Shard) ID() int { return s.id }

// Dispatcher returns the shard's dispatcher.
func (s *Shard) Dispatcher() *dispatch.Dispatcher { return s.d }

// Admission aggregates the shard's admission-queue ledgers.
func (s *Shard) Admission() admit.QueueStats {
	var sum admit.QueueStats
	for _, q := range s.d.AdmissionQueues() {
		sum = sum.Add(q.Stats())
	}
	return sum
}

// Router is the routing plane: it consistent-hashes event names onto a
// fixed set of shards and hands out Event front handles whose shard is
// pinned at definition time. The ring and shards never change after
// NewRouter; the mutex guards only the event table. Raises go through the
// handles and never touch the router.
type Router struct {
	ring   *ring
	shards []*Shard

	mu     sync.Mutex
	events map[string]*Event
}

// NewRouter builds the routing plane with cfg.Shards shards.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: router needs at least 1 shard, got %d", cfg.Shards)
	}
	mk := cfg.NewShard
	if mk == nil {
		mk = func(int) *dispatch.Dispatcher { return dispatch.New() }
	}
	r := &Router{
		ring:   buildRing(cfg.Shards),
		events: make(map[string]*Event),
	}
	for i := 0; i < cfg.Shards; i++ {
		d := mk(i)
		if d == nil {
			return nil, fmt.Errorf("shard: NewShard(%d) returned nil", i)
		}
		r.shards = append(r.shards, &Shard{id: i, d: d})
	}
	return r, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// Shard returns slot i's handle.
func (r *Router) Shard(i int) *Shard { return r.shards[i] }

// Owner reports which shard the ring assigns a name to.
func (r *Router) Owner(name string) int { return r.ring.owner(name) }

// Admission aggregates every shard's admission ledger into the plane-wide
// view; the conservation law (QueueStats.Identity) survives the sum
// because shard ledgers are disjoint.
func (r *Router) Admission() admit.QueueStats {
	var sum admit.QueueStats
	for _, s := range r.shards {
		sum = sum.Add(s.Admission())
	}
	return sum
}

// DefineEvent declares an event on the shard the ring assigns its name to
// and returns the routed front handle. Options are the dispatcher's own
// (WithIntrinsic, WithOwner, AsAsync).
func (r *Router) DefineEvent(name string, sig rtti.Signature, opts ...dispatch.EventOption) (*Event, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.events[name]; dup {
		return nil, fmt.Errorf("%w: %s", dispatch.ErrDuplicateEvent, name)
	}
	s := r.shards[r.ring.owner(name)]
	de, err := s.d.DefineEvent(name, sig, opts...)
	if err != nil {
		return nil, err
	}
	e := &Event{Event: de, shard: s}
	r.events[name] = e
	return e, nil
}

// Lookup returns the routed handle for a defined event.
func (r *Router) Lookup(name string) (*Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.events[name]
	return e, ok
}

// Events returns a snapshot of the defined event handles, in no particular
// order.
func (r *Router) Events() []*Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Event, 0, len(r.events))
	for _, e := range r.events {
		out = append(out, e)
	}
	return out
}
