package codegen

// The guard index — the paper's stated future work: "we presently do not
// optimize the guard decision tree, which would be effective for the port
// comparison required by this example. We are currently working on a
// strategy by which this type of guard optimization can be easily
// expressed" (§3.2).
//
// The strategy implemented here: during plan compilation, every
// consecutive run of at least treeThreshold steps whose first guard leaf is
// an ArgEq predicate on the same argument gets one immutable index. At
// dispatch time the argument word is extracted once and hashed to the first
// step of the run comparing against it; a per-step chain leads to the next
// step with the same constant. Steps comparing against any other constant
// are never visited, so evaluation cost is O(1) in the number of guarded
// endpoints instead of O(n) — Table 2's per-guard slope disappears.
//
// Only the first leaf is decided by the lookup: a step's remaining guards
// (further And leaves, call guards, authorizer-imposed guards) are
// evaluated on a hit as on any step, so any step that *starts* with the
// equality is eligible.
//
// Correctness: the index only skips steps whose first leaf is already known
// false; steps sharing a constant chain in plan order; and only consecutive
// runs index, so ordering against interleaved bindings is preserved. It
// relies on guards being FUNCTIONAL (§2.3 "Evaluating guards"). A filter may
// rewrite the discriminated argument, so it never joins a run.
//
// Incremental installation (chain.go): a plan compiled from its predecessor
// shares every run of the predecessor's index that ends before the first
// step it changes. The run ending at that step, when the new steps extend
// it, is copied and only the new keys are inserted; it is rebuilt when its
// table must grow (amortised: the table doubles) or when the new plan cuts
// into it. Every run behind it is built from scratch.
//
// Every plan carries the index, and both walks (flat.go) use it. The
// observed walk charges a lookup as one inline guard; the calibrated model
// does not move, because no paper table installs a run this long of inline
// equality guards (DESIGN.md decision 15).

// treeThreshold is the minimum run length worth an index; below it the
// linear scan is cheaper than the lookup.
const treeThreshold = 4

// guardRun is the index over one run of steps [start, end).
type guardRun struct {
	start, end int
	arg        int   // the discriminated argument
	keys       int   // distinct constants, for disassembly
	shift      uint8 // 64 - log2(len(slots)): the hash keeps the top bits
	// slots is a power-of-two open-addressed table, at most two-thirds
	// full, from a constant to the first step of the run comparing against
	// it. An empty slot holds end, so a miss reads as "resume behind the
	// run" with no separate test.
	slots []indexSlot
	// chain[i-start] is the next step after i with step i's constant, or
	// end.
	chain []int32
}

type indexSlot struct {
	key  uint64
	step int32
}

// indexKey reports whether a step can join a run, and on which (argument,
// constant) its first guard leaf discriminates.
func indexKey(st *step) (arg int, k uint64, ok bool) {
	if len(st.guards) == 0 || st.guards[0].Pred == nil || st.b.Filter {
		return 0, 0, false
	}
	p := st.guards[0].Pred
	for p.Op == PredAnd {
		p = p.L
	}
	if p.Op != PredArgEq {
		return 0, 0, false
	}
	return p.Arg, p.K, true
}

// buildGuardIndex finds the indexable runs of a compiled step list and
// builds each one's table, in plan order. prev is the index of a plan whose
// first k steps the list shares (nil and 0 when there is none), from which
// keptRuns takes what still holds.
func buildGuardIndex(steps []step, prev []guardRun, k int) []guardRun {
	runs, i := keptRuns(steps, prev, k)
	for i < len(steps) {
		arg, _, ok := indexKey(&steps[i])
		if !ok {
			i++
			continue
		}
		j := i + 1
		for j < len(steps) {
			if a, _, ok := indexKey(&steps[j]); !ok || a != arg {
				break
			}
			j++
		}
		if j-i >= treeThreshold {
			runs = append(runs, newGuardRun(steps, i, j, arg))
		}
		i = j
	}
	return runs
}

// keptRuns returns the runs of prev a plan sharing its first k steps keeps,
// and the step its scan for further runs starts at: the start of the
// stretch of steps that may discriminate on one argument around step k.
func keptRuns(steps []step, prev []guardRun, k int) ([]guardRun, int) {
	if k == 0 {
		return nil, 0
	}
	m := len(prev) // prev's runs that start in the kept prefix
	for m > 0 && prev[m-1].start >= k {
		m--
	}
	lo := 0 // where a stretch ending at step k-1 may start
	if m > 0 {
		r := &prev[m-1]
		switch {
		case r.end > k: // the prefix cuts into the run: rebuild it
			return prev[: m-1 : m-1], r.start
		case r.end == k:
			end := k
			for end < len(steps) {
				if a, _, ok := indexKey(&steps[end]); !ok || a != r.arg {
					break
				}
				end++
			}
			if end == k {
				return prev[:m:m], k
			}
			return append(prev[:m-1:m-1], r.extend(steps, end)), end
		}
		lo = r.end
	}
	// Step k-1 ends no run: any stretch it ends is shorter than
	// treeThreshold (prev would have indexed it), and the new steps may
	// lengthen it into one.
	start := k
	if arg, _, ok := indexKey(&steps[k-1]); ok {
		for start--; start > lo; start-- {
			if a, _, ok := indexKey(&steps[start-1]); !ok || a != arg {
				break
			}
		}
	}
	return prev[:m:m], start
}

// newGuardRun indexes steps[start:end]. Walking the run backwards leaves
// each constant's slot on its first step and every chain in plan order.
func newGuardRun(steps []step, start, end, arg int) guardRun {
	n := end - start
	size, shift := 2, uint8(63)
	for size < n+n/2 {
		size, shift = size<<1, shift-1
	}
	r := guardRun{start: start, end: end, arg: arg, shift: shift,
		slots: make([]indexSlot, size), chain: make([]int32, n)}
	for i := range r.slots {
		r.slots[i].step = int32(end)
	}
	for i := end - 1; i >= start; i-- {
		_, k, _ := indexKey(&steps[i])
		s := r.slot(k)
		if int(s.step) == end {
			s.key = k
			r.keys++
		}
		r.chain[i-start] = s.step
		s.step = int32(i)
	}
	return r
}

// extend returns the run grown to steps[start:end]: a copy of its table
// with the steps behind its old end inserted, or a rebuilt one when the
// table must grow. Either is the table newGuardRun builds for that range up
// to slot placement.
func (r *guardRun) extend(steps []step, end int) guardRun {
	n := end - r.start
	if len(r.slots) < n+n/2 {
		return newGuardRun(steps, r.start, end, r.arg)
	}
	// Copy, moving the misses (empty slots, chain tails) from the old end to
	// the new.
	x := *r
	x.end = end
	x.slots = make([]indexSlot, len(r.slots))
	for i, s := range r.slots {
		if int(s.step) == r.end {
			s.step = int32(end)
		}
		x.slots[i] = s
	}
	x.chain = make([]int32, n)
	for i, c := range r.chain {
		if int(c) == r.end {
			c = int32(end)
		}
		x.chain[i] = c
	}
	for i := r.end; i < end; i++ {
		_, k, _ := indexKey(&steps[i])
		x.chain[i-x.start] = int32(end)
		s := x.slot(k)
		if int(s.step) == end {
			s.key, s.step = k, int32(i)
			x.keys++
			continue
		}
		t := int(s.step) - x.start // the tail of k's chain
		for int(x.chain[t]) != end {
			t = int(x.chain[t]) - x.start
		}
		x.chain[t] = int32(i)
	}
	return x
}

// slot probes for k: the slot holding it, or the empty slot where it would
// go (step == end).
func (r *guardRun) slot(k uint64) *indexSlot {
	mask := uint64(len(r.slots) - 1)
	for h := (k * 0x9E3779B97F4A7C15) >> r.shift; ; h++ {
		if s := &r.slots[h&mask]; s.key == k || int(s.step) == r.end {
			return s
		}
	}
}

// find returns the first step of the run whose constant equals the
// discriminated argument, or end when none does or the argument is not a
// word (ArgEq fails on a non-word, so the whole run is skipped).
func (r *guardRun) find(args []any) int {
	w, ok := argWord(args, r.arg)
	if !ok {
		return r.end
	}
	return int(r.slot(w).step)
}

// next returns the step after i in i's chain, or end.
func (r *guardRun) next(i int) int { return int(r.chain[i-r.start]) }
