package dispatch

import (
	"sync/atomic"

	"spin/internal/stripe"
)

// stripedCounter is the dispatcher's statistics counter, sharded across
// cache-line-padded cells; see internal/stripe. It lives in its own package
// so the code generator's executors can add a raise's firings beyond one to
// the event's fired excess (codegen.Env.FiredExcess) on the raise's one
// hoisted shard index. A raise counts itself in its frame cell's raise
// count first (frameCell), so the fired total is raised + excess and a
// raise that fires one handler makes one shared write.
type stripedCounter = stripe.Counter

// cellArity is the widest frame a cell holds: Raise5, the widest shape
// Table 1 sweeps.
const cellArity = 5

// frameCell is one stripe's share of an event's raise count and the
// argument frame its arity-specialized raises own, padded to two cache
// lines. w is 2·raised + busy: the low bit is set while a raise owns the
// frame, and an owner counts as raised from its claim on, so the count is
// (w+1)>>1.
//
//   - Raise1..Raise5 claim an idle cell with one CAS from an even v to v+1
//     (Event.own), which is also the raise's count (v/2+1, the journal's
//     sampling draw), fill the frame, raise on it, nil the arity words, and
//     release with one Add(1).
//   - Every other raise on the stripe adds 2 — a busy cell's (re-entrant,
//     or another goroutine's on the same stripe), Raise, Raise0,
//     RaiseReport and a batch's frames — which counts it and leaves the
//     busy bit as it was.
//
// An unnested raise so pays two locked ops for its frame and its count, and
// nested raises of different events each own their own event's cell.
type frameCell struct {
	w     atomic.Int64
	frame [cellArity]any
	_     [128 - 8 - cellArity*16]byte
}

// release hands the frame back after a raise of n arguments: a store per
// word first, so the cell pins no argument (a forward range loop would
// compile to clear's bulk-barrier memclr, which costs more at these widths),
// then one add that clears the busy bit and keeps the count.
func (c *frameCell) release(n int) {
	for i := n - 1; i >= 0; i-- {
		c.frame[i] = nil
	}
	c.w.Add(1)
}

// count counts n raises that own no frame on the cell and returns the
// cell's count after them, the draw journal.SampleCount reads.
func (c *frameCell) count(n int64) int64 {
	return (c.w.Add(2*n) + 1) >> 1
}
