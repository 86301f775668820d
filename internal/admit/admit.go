// Package admit is the dispatcher's overload-control subsystem: bounded
// admission queues, a size-capped worker pool, and a load-level degradation
// controller.
//
// The paper keeps dispatch at procedure-call cost but leaves asynchronous
// raises unbounded: every async invocation gets a fresh thread of control,
// so a burst of raises can exhaust memory before any per-handler fault
// budget notices. This package moves the concurrency limit into the binding
// layer, where the dispatcher — not each extension — owns it: asynchronous
// work is submitted to a per-event bounded Queue drained by a shared Pool
// whose worker population is capped, and a pluggable Policy decides what
// happens when the queue is full (block the producer, shed the newest or
// oldest raise, or coalesce duplicate pending raises).
//
// The package is mechanism-free in the same sense internal/fault is: it
// knows nothing about events, bindings, or plans. The dispatcher compiles a
// queue reference into an event's dispatch plan exactly the way trace
// programs and fault hooks are compiled in, so an event with no admission
// policy pays one nil check per async step and nothing else.
package admit

import (
	"errors"
	"fmt"
	"time"
)

// Mode selects what Submit does when the queue is at capacity.
type Mode uint8

const (
	// Block makes the producer wait for space, bounded by the policy's
	// BlockTimeout (and the submission context). A timeout sheds the
	// submission.
	Block Mode = iota
	// Shed rejects the newest submission with ErrOverload, leaving the
	// queued backlog intact — the classic tail-drop policy.
	Shed
	// ShedOldest drops the oldest queued item to admit the newest, for
	// workloads where fresh raises supersede stale ones.
	ShedOldest
	// Coalesce merges a submission with a pending item carrying the same
	// key (idempotent notifications): the pending run stands for both.
	// With no pending duplicate and the queue full, the submission is
	// shed as in Shed.
	Coalesce
)

func (m Mode) String() string {
	switch m {
	case Block:
		return "block"
	case Shed:
		return "shed"
	case ShedOldest:
		return "shed-oldest"
	case Coalesce:
		return "coalesce"
	}
	return "mode(?)"
}

// DefaultDepth is the queue capacity a zero Policy.Depth selects.
const DefaultDepth = 64

// Policy is one event's admission policy.
type Policy struct {
	// Mode selects the full-queue behaviour.
	Mode Mode
	// Depth bounds the number of pending admitted items; zero selects
	// DefaultDepth.
	Depth int
	// BlockTimeout bounds how long a Block-mode producer waits for space;
	// zero waits until space frees (or the submission context ends).
	BlockTimeout time.Duration
}

// depth returns the effective queue capacity.
func (p Policy) depth() int {
	if p.Depth > 0 {
		return p.Depth
	}
	return DefaultDepth
}

// ErrOverload is the sentinel every shed submission wraps; raisers test for
// it with errors.Is.
var ErrOverload = errors.New("admit: overloaded, submission shed")

// OverloadError is the typed error a shed submission returns: the queue's
// name (the event), the policy mode that shed it, and the depth at the time.
type OverloadError struct {
	Queue string
	Mode  Mode
	Depth int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("admit: %s overloaded (%s, depth %d)", e.Queue, e.Mode, e.Depth)
}

// Is makes errors.Is(err, ErrOverload) hold for every OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverload }

// QueueStats is a consistent snapshot of one queue's accounting. Every
// submission ends in exactly one of completed, shed, or coalesced (or is
// still pending), so Submitted == Completed + Shed + Coalesced + Depth once
// the queue drains.
type QueueStats struct {
	// Submitted counts external submissions, including ones that were
	// shed or coalesced.
	Submitted int64
	// Completed counts admitted items whose run has returned (or been
	// abandoned to its watchdog).
	Completed int64
	// Shed counts submissions rejected or dropped: Shed-mode rejections,
	// ShedOldest drops, and Block-mode timeouts.
	Shed int64
	// Coalesced counts submissions merged into a pending duplicate.
	Coalesced int64
	// Retried counts retransmissions; a remote peer's ledger keeps it
	// (remote.Peer.Ledger), and a Queue never retries.
	Retried int64
	// Depth is the current number of pending items; MaxDepth the high
	// watermark.
	Depth    int
	MaxDepth int
	// InFlight counts items a worker has taken but not yet settled.
	InFlight int
}

// Drained reports whether every submission has reached a final outcome.
func (s QueueStats) Drained() bool {
	return s.Depth == 0 && s.InFlight == 0
}

// Identity reports the ledger conservation law: every submission is
// completed, shed, coalesced, or still in the machine (queued or in
// flight). On a drained queue it reduces to
// Submitted == Completed + Shed + Coalesced; TestQueueAccountingIdentity
// checks it on drained Shed, ShedOldest and Coalesce queues.
func (s QueueStats) Identity() bool {
	return s.Submitted == s.Completed+s.Shed+s.Coalesced+
		int64(s.Depth)+int64(s.InFlight)
}

// PoolStats is a snapshot of the worker pool.
type PoolStats struct {
	// Capacity is the configured worker cap; Extra the additional
	// headroom from currently abandoned (stuck) invocations.
	Capacity int
	Extra    int
	// Running counts live workers (including parked ones); Parked the
	// subset waiting for work.
	Running int
	Parked  int
	// Abandoned is the total number of invocations ever abandoned to a
	// watchdog while holding a worker.
	Abandoned int64
}
