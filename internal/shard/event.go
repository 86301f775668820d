package shard

import "spin/internal/dispatch"

// Event is the routed front handle: the dispatcher event the name was
// defined on, with its owning shard resolved once, at definition time.
// Raises, installs and Stats are the dispatcher event's own methods, so a
// routed raise is the dispatcher's raise — same 0-alloc entry points, no
// route load.
type Event struct {
	*dispatch.Event
	shard *Shard
}

// Shard returns the shard owning the event.
func (e *Event) Shard() *Shard { return e.shard }
