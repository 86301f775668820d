package codegen

import "sync/atomic"

// Incremental installation — the paper's "more incremental (and
// economical) approach to installation" (§3.1). A plan compiled from its
// predecessor (Compile's prev) keeps the prefix of its steps the caller's
// change left alone — the dispatcher finds it by walking back from the end
// of the predecessor, so it costs what the change does — and lowers only
// the bindings behind it. The kept prefix is not copied: the plans compiled
// from one another share one append-only chain of backing arrays for their
// steps, flattened steps and leaf pools, each plan a prefix of it.
// Appending an install behind the residents writes one step into the chain
// in place; uninstalling the last binding, or a recompile that changes no
// step (a trace or fault-policy toggle), writes nothing. Raises read a
// plan's contiguous flat[0:len) as before, so the step loop does not
// change. An append behind appends therefore costs O(1) amortised in the
// bindings already resident, and so does an uninstall of the last binding
// unless it cuts a guard-index run, which is rebuilt (tree.go); an append
// right after an uninstall copies the residents (below).
//
// Safety: a plan appends in place only when its prefix ends at the chain's
// marks — as far as any plan has claimed the arrays — and it claims the
// space behind them with one CAS, so no element a published plan reads is
// ever written again. Any other plan with steps to add (one behind an
// uninstall, or beside a plan that already claimed the space, or a full
// chain) copies its prefix into a new chain with room to grow, so growth is
// amortised. The guard index's slot tables and chain links are shared along
// the same line, and a plan that claimed its steps appends their index
// entries in place under the same rule (tree.go).
//
// The calibrated model still charges the paper's full regeneration per
// install (Event.recompile); only native time changes.

// chain is the storage a line of plans compiled from one another shares:
// the backing arrays of their steps, flattened steps and leaf pools, and how
// far plans have claimed each (see chainMarks).
type chain struct {
	steps []step
	flat  []flatStep
	preds []flatPred
	marks atomic.Uint64
}

// chainMarks packs how many steps and pooled leaves of a chain plans have
// claimed.
func chainMarks(steps, preds int) uint64 { return uint64(steps)<<32 | uint64(preds) }

// chainRoom is the capacity a new chain gets for n elements: room to grow
// by half again, so a line of appends copies amortised O(1) per append.
func chainRoom(n int) int { return n + (n+1)/2 }

// extend fills the plan's step arrays with prev's first k steps followed by
// the suffix's lowerings, and its counts and boundary positions with theirs.
// With no suffix it shares prev's arrays outright; otherwise it appends in
// place when it can claim the chain behind prev's prefix, and copies the
// prefix into a new chain when it cannot. It reports whether it appended in
// place: the plan then owns the storage behind step k.
func (p *Plan) extend(prev *Plan, k int, suffix []*lowered) (inPlace bool) {
	kp := 0 // pooled leaves of the kept prefix
	var c *chain
	if prev != nil {
		c = prev.chain
		p.leaves, p.outOfLine, p.retaining, p.filters = prev.leaves, prev.outOfLine, prev.retaining, prev.filters
		for i := k; i < len(prev.steps); i++ {
			p.tally(&prev.steps[i], &prev.flat[i], -1)
		}
		if k > 0 {
			kp = int(prev.flat[k-1].p1)
		}
		m := len(prev.bounds)
		for m > 0 && prev.bounds[m-1] >= k {
			m--
		}
		if m > 0 {
			p.bounds = prev.bounds[:m:m] // an append copies
		}
	}
	n, np := k+len(suffix), kp
	for _, lo := range suffix {
		np += len(lo.rest)
	}
	switch {
	case len(suffix) == 0:
	case c != nil && n <= len(c.steps) && np <= len(c.preds) &&
		c.marks.CompareAndSwap(chainMarks(k, kp), chainMarks(n, np)):
		inPlace = true
	default:
		c = &chain{steps: make([]step, chainRoom(n)), flat: make([]flatStep, chainRoom(n)),
			preds: make([]flatPred, chainRoom(np))}
		if k > 0 {
			copy(c.steps, prev.steps[:k])
			copy(c.flat, prev.flat[:k])
			copy(c.preds, prev.flatPreds[:kp])
		}
		c.marks.Store(chainMarks(n, np))
	}
	if n == 0 {
		return false // an empty plan holds no storage
	}
	p.chain = c
	p.steps, p.flat, p.flatPreds = c.steps[:n:n], c.flat[:n:n], c.preds[:np:np]
	for i, lo := range suffix {
		j := k + i
		st, fs := &p.steps[j], &p.flat[j]
		*st, *fs = lo.st, lo.flat
		st.idx = j
		fs.p0 = int32(kp)
		kp += copy(p.flatPreds[kp:], lo.rest)
		fs.p1 = int32(kp)
		if st.boundary() {
			p.bounds = append(p.bounds, j)
		}
		p.tally(st, fs, 1)
	}
	return inPlace
}

// tally adds one step's share of the plan's counts, or takes it away (sign
// -1): the counts of a kept prefix are its predecessor's less the steps it
// drops.
func (p *Plan) tally(st *step, fs *flatStep, sign int) {
	leaves := int(fs.p1 - fs.p0)
	if fs.g0.op != PredTrue { // flattenPred never lowers a True leaf
		leaves++
	}
	p.leaves += sign * leaves
	if !st.inline {
		p.outOfLine += sign
	}
	if st.b.Async || st.b.Ephemeral {
		p.retaining += sign
	}
	if st.b.Filter {
		p.filters += sign
	}
}
