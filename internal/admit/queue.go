package admit

import (
	"context"
	"sync"
	"time"
)

// qitem is one admitted submission.
type qitem struct {
	key any
	run Work
}

// Queue is one event's bounded admission queue: producers Submit work, pool
// workers drain it one item per turn. The policy decides what happens at
// capacity. Keys must be comparable; Coalesce merges pending items by key.
type Queue struct {
	name string
	pol  Policy
	pool *Pool

	mu    sync.Mutex
	items []qitem
	head  int
	// listed is true while the queue is on the pool's runnable list (or a
	// worker is about to relist it); it keeps the queue from being listed
	// more than once.
	listed  bool
	waiters []chan struct{}

	submitted int64
	completed int64
	shed      int64
	coalesced int64
	inflight  int
	maxDepth  int

	// onShed, when set, observes every shed decision (for trace spans and
	// the degradation controller). Called without the queue lock.
	onShed func()
}

// NewQueue creates a queue drained by pool under the given policy. name
// labels diagnostics and overload errors (typically the event name).
func NewQueue(name string, pol Policy, pool *Pool) *Queue {
	return &Queue{name: name, pol: pol, pool: pool}
}

// Name returns the queue's diagnostic name.
func (q *Queue) Name() string { return q.name }

// OnShed registers a hook observing every shed decision. Call before use.
func (q *Queue) OnShed(fn func()) { q.onShed = fn }

// Stats returns a consistent snapshot of the queue's accounting.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Submitted: q.submitted,
		Completed: q.completed,
		Shed:      q.shed,
		Coalesced: q.coalesced,
		Depth:     len(q.items) - q.head,
		MaxDepth:  q.maxDepth,
		InFlight:  q.inflight,
	}
}

// Submit offers one work item under the queue's policy. A nil error means
// the item was admitted (or coalesced into a pending duplicate); a shed
// submission returns an *OverloadError wrapping ErrOverload. In Block mode
// the wait is bounded by the policy's BlockTimeout and by ctx.
func (q *Queue) Submit(ctx context.Context, key any, run Work) error {
	depth := q.pol.depth()
	q.mu.Lock()
	q.submitted++
	for {
		if q.pol.Mode == Coalesce && key != nil {
			merged := false
			for i := q.head; i < len(q.items); i++ {
				if q.items[i].key == key {
					merged = true
					break
				}
			}
			if merged {
				q.coalesced++
				q.mu.Unlock()
				return nil
			}
		}
		if len(q.items)-q.head < depth {
			break
		}
		switch q.pol.Mode {
		case Shed, Coalesce:
			return q.shedLocked(depth)
		case ShedOldest:
			q.items[q.head] = qitem{}
			q.head++
			q.shed++
			q.mu.Unlock()
			q.notifyShed()
			q.mu.Lock()
		case Block:
			if err := q.blockLocked(ctx, depth); err != nil {
				return err
			}
			// Space may have been granted; re-check under the lock.
		}
	}
	q.items = append(q.items, qitem{key: key, run: run})
	if d := len(q.items) - q.head; d > q.maxDepth {
		q.maxDepth = d
	}
	listed := q.listed
	q.listed = true
	q.mu.Unlock()
	if !listed {
		q.pool.enqueue(q)
	}
	return nil
}

// shedLocked records one shed and returns the typed overload error. The
// queue lock is held on entry and released here.
func (q *Queue) shedLocked(depth int) error {
	q.shed++
	d := len(q.items) - q.head
	q.mu.Unlock()
	q.notifyShed()
	return &OverloadError{Queue: q.name, Mode: q.pol.Mode, Depth: d}
}

// blockLocked waits for a free slot in Block mode. The queue lock is held
// on entry and re-held on a nil return; a non-nil return (timeout or
// context end) leaves the lock released.
func (q *Queue) blockLocked(ctx context.Context, depth int) error {
	w := make(chan struct{})
	q.waiters = append(q.waiters, w)
	q.mu.Unlock()

	var timeout <-chan time.Time
	if q.pol.BlockTimeout > 0 {
		t := time.NewTimer(q.pol.BlockTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-w:
		q.mu.Lock()
		return nil
	case <-timeout:
	case <-ctx.Done():
	}
	q.mu.Lock()
	if q.removeWaiterLocked(w) {
		return q.shedLocked(depth)
	}
	// A drain granted the slot as we gave up; take it anyway (the lock is
	// held and the caller re-checks capacity).
	return nil
}

// removeWaiterLocked removes w from the waiter list; false means a drain
// already granted (and closed) it. Caller holds the lock.
func (q *Queue) removeWaiterLocked(w chan struct{}) bool {
	for i, c := range q.waiters {
		if c == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// notifyShed runs the shed hook outside the queue lock.
func (q *Queue) notifyShed() {
	if q.onShed != nil {
		q.onShed()
	}
}

// pop removes the head item for a pool worker. more reports whether
// further items remain (the worker relists the queue before running); a
// nil run means the queue emptied between listing and pop.
func (q *Queue) pop() (run Work, more bool) {
	q.mu.Lock()
	if q.head >= len(q.items) {
		q.listed = false
		q.mu.Unlock()
		return nil, false
	}
	it := q.items[q.head]
	q.items[q.head] = qitem{}
	q.head++
	q.inflight++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	more = q.head < len(q.items)
	if !more {
		q.listed = false
	}
	// One slot freed: admit the longest-waiting blocked producer.
	var grant chan struct{}
	if len(q.waiters) > 0 {
		grant = q.waiters[0]
		q.waiters = q.waiters[1:]
	}
	q.mu.Unlock()
	if grant != nil {
		close(grant)
	}
	return it.run, more
}

// settle retires one in-flight run as completed.
func (q *Queue) settle() {
	q.mu.Lock()
	q.inflight--
	q.completed++
	q.mu.Unlock()
}
