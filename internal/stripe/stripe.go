// Package stripe picks the stripe a goroutine's hot-path statistics shard
// on (Index) and provides cache-line-padded striped counters. A counter
// is sharded across independent cache lines so parallel writers on one
// hot event do not serialize on a shared line; reads sum all shards. It
// lives in its own package so both the dispatcher (per-event time totals)
// and the code generator's executors (the per-event fired excess, the
// firings beyond one per raise, added on the raise's hoisted stripe index
// only when not zero) share one implementation. An event's raise total is
// not a Counter: it lives in the dispatcher's per-stripe frame cells,
// which fold a busy bit for the frame into the count.
package stripe

import (
	"sync/atomic"
	"unsafe"
)

// Stripes is the number of independent shards in a Counter, and of the
// values Index returns. A power of two so the index reduces with a mask.
// Eight shards cover the core counts the parallel-raise benchmarks sweep;
// beyond that, collisions only degrade toward single-atomic behaviour,
// never past it.
const Stripes = 8

// counterStripe is one shard, padded out to a 64-byte cache line so
// adjacent shards never false-share (§3's "procedure call cost" target is
// unreachable if every raise bounces a contended line between cores).
type counterStripe struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a statistics counter sharded across cache-line-padded cells.
// Hot-path increments go to a per-goroutine shard; reads sum all shards.
// Increments are atomic and never lost, so a Load that races with Adds
// returns some valid intermediate total — exactly the guarantee a single
// atomic would give.
type Counter struct {
	stripes [Stripes]counterStripe
}

// Add increments the counter on the calling goroutine's shard.
func (c *Counter) Add(delta int64) {
	c.stripes[Index()].n.Add(delta)
}

// AddAt increments the counter on shard idx, previously obtained from
// Index. A raise hoists one Index call and reuses it for everything it
// touches on a stripe (its frame cell and the fired excess), instead of
// re-hashing per increment.
func (c *Counter) AddAt(idx int, delta int64) {
	c.stripes[idx].n.Add(delta)
}

// Load sums the shards.
func (c *Counter) Load() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].n.Load()
	}
	return sum
}

// Index picks a shard for the calling goroutine. Go exposes no goroutine
// or P identity, so it hashes the address of a stack variable: goroutine
// stacks live in distinct allocations, so concurrent raisers spread across
// shards, while any single goroutine stays on one shard for a given call
// depth. The shift discards the within-frame bits (stacks are 2KiB-granular
// at minimum).
func Index() int {
	var marker byte
	p := uintptr(unsafe.Pointer(&marker))
	return int((p >> 11) & (Stripes - 1))
}
