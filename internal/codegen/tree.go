package codegen

import (
	"math"
	"sync/atomic"
)

// The guard index — the paper's stated future work: "we presently do not
// optimize the guard decision tree, which would be effective for the port
// comparison required by this example. We are currently working on a
// strategy by which this type of guard optimization can be easily
// expressed" (§3.2).
//
// The strategy implemented here: during plan compilation, every
// consecutive run of at least treeThreshold steps whose first guard leaf is
// an ArgEq predicate on the same argument gets one index. At
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
// relies on guards being FUNCTIONAL (§2.3 "Evaluating guards"). A boundary
// step — filter, async or ephemeral — never joins a run: both walks run it
// between segments (flat.go), and a filter may rewrite the discriminated
// argument.
//
// Incremental installation (chain.go): a plan compiled from its
// predecessor shares every run of the predecessor's index that ends before
// the first step it changes, and a run it extends shares its storage too;
// a run it cuts short is rebuilt. The slot table and the chain links are
// append-only along one line of plans, under chain.go's rule: no element a
// published plan can reach is ever rewritten. Each plan bounds what it
// reads by its own run end — a slot whose step is at or past it reads as
// empty, a link at or past it as the end — so a later plan's keys are
// invisible to an earlier one. A plan that appended its steps in place
// (chain.go's claim) appends the run's new keys in place too, when the
// storage ends where the run does and the table has room; it stores a new
// slot's step after its key and a tail's new link atomically, the only
// writes older plans can observe. Otherwise the run is built anew
// (amortised: the table doubles), and so is every run behind it.
//
// Every plan carries the index, and both walks (flat.go) use it. The
// observed walk charges a lookup as one inline guard; the calibrated model
// does not move, because no paper table installs a run this long of inline
// equality guards (DESIGN.md decision 15).

// treeThreshold is the minimum run length worth an index; below it the
// linear scan is cheaper than the lookup.
const treeThreshold = 4

// noStep fills an unused slot and ends every chain: past every run's end,
// it reads as empty and as the end to every plan.
const noStep = math.MaxInt32

// guardRun is one plan's view of the index over one run of steps
// [start, end).
type guardRun struct {
	start, end int
	arg        int   // the discriminated argument
	keys       int   // distinct constants in [start, end), for disassembly
	shift      uint8 // 64 - log2(len(slots)): the hash keeps the top bits
	// slots is a power-of-two open-addressed table, at most two-thirds
	// full, from a constant to the first step of the run comparing against
	// it. A slot whose step is at or past end reads as empty, and a miss
	// as end: "resume behind the run".
	slots []indexSlot
	// links[i-start] is the next step after i with step i's constant; one
	// at or past end reads as end.
	links []atomic.Int32
	// written is how far any plan has filled slots and links, shared by
	// the plans that read them: only the plan whose run ends there may
	// append in place.
	written *int
}

type indexSlot struct {
	key  uint64
	step atomic.Int32 // stored after key
	tail int32        // the constant's last step, where an append links in
}

// indexKey reports whether a step can join a run — a synchronous step
// whose first guard leaf is an equality — and on which (argument,
// constant) it discriminates.
func indexKey(st *step) (arg int, k uint64, ok bool) {
	if len(st.guards) == 0 || st.guards[0].Pred == nil || st.boundary() {
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
// builds each one's table, in plan order. prev is a plan whose first k
// steps the list shares (nil and 0 when there is none), from whose index
// keptRuns takes what still holds; inPlace reports that the list's steps
// behind k were appended to prev's storage in place (chain.go).
func buildGuardIndex(steps []step, prev *Plan, k int, inPlace bool) []guardRun {
	runs, i := keptRuns(steps, prev, k, inPlace)
	for i < len(steps) {
		arg, _, ok := indexKey(&steps[i])
		if !ok {
			i++
			continue
		}
		j := sameArg(steps, i+1, arg)
		if j-i >= treeThreshold {
			runs = append(runs, newGuardRun(steps, i, j, arg))
		}
		i = j
	}
	return runs
}

// sameArg is where the stretch of steps from i on that discriminate on arg
// ends.
func sameArg(steps []step, i, arg int) int {
	for i < len(steps) {
		if a, _, ok := indexKey(&steps[i]); !ok || a != arg {
			break
		}
		i++
	}
	return i
}

// keptRuns returns the runs of prev's index a plan sharing its first k
// steps keeps, and the step its scan for further runs starts at: the start
// of the stretch of steps that may discriminate on one argument around
// step k. A run that step k cuts short is rebuilt from its start, and one
// that ends at step k is extended over the new steps that join it.
func keptRuns(steps []step, prev *Plan, k int, inPlace bool) ([]guardRun, int) {
	if k == 0 {
		return nil, 0
	}
	pr := prev.runs
	m := len(pr) // prev's runs that start in the kept prefix
	for m > 0 && pr[m-1].start >= k {
		m--
	}
	lo := 0 // where a stretch ending at step k-1 may start
	if m > 0 {
		r := &pr[m-1]
		switch {
		case r.end > k: // the prefix cuts into the run: rebuild it
			return pr[: m-1 : m-1], r.start
		case r.end == k:
			end := sameArg(steps, k, r.arg) // how far the run reaches in the list
			if end == k {
				return pr[:m:m], k
			}
			return append(pr[:m-1:m-1], r.extend(steps, end, inPlace)), end
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
	return pr[:m:m], start
}

// newGuardRun indexes steps[start:end] in new storage with room for the
// run to grow until its table must double: the least power of two, at
// least 2, that keeps it at most two-thirds full.
func newGuardRun(steps []step, start, end, arg int) guardRun {
	n := end - start
	size, shift := 2, uint8(63)
	for size < n+n/2 {
		size, shift = size<<1, shift-1
	}
	r := guardRun{start: start, end: start, arg: arg, shift: shift,
		slots: make([]indexSlot, size), links: make([]atomic.Int32, size), written: new(int)}
	for i := range r.slots {
		r.slots[i].step.Store(noStep)
	}
	r.add(steps, end)
	return r
}

// extend returns the run grown to steps[start:end]. It appends the new
// steps to the shared storage when the plan claimed them in place, the
// storage ends where the run does (no plan has written past it), and the
// table keeps room; otherwise it builds the run anew.
func (r *guardRun) extend(steps []step, end int, inPlace bool) guardRun {
	n := end - r.start
	if !inPlace || *r.written != r.end || len(r.slots) < n+n/2 {
		return newGuardRun(steps, r.start, end, r.arg)
	}
	x := *r
	x.add(steps, end)
	return x
}

// add appends steps [r.end, end) to storage the plan owns from r.end on:
// each step fills the empty slot its constant probes to, or links in behind
// its constant's tail. The stores an older plan can observe — a slot's step,
// a tail's link — are atomic, and a slot's key precedes its step.
func (r *guardRun) add(steps []step, end int) {
	for i := r.end; i < end; i++ {
		_, k, _ := indexKey(&steps[i])
		r.links[i-r.start].Store(noStep)
		s := r.slot(k, i)
		if int(s.step.Load()) >= i {
			s.key, s.tail = k, int32(i)
			s.step.Store(int32(i))
			r.keys++
			continue
		}
		r.links[int(s.tail)-r.start].Store(int32(i))
		s.tail = int32(i)
	}
	r.end = end
	*r.written = end
}

// slot probes for k among the slots a run ending at end reads: the slot
// holding it, or the one that reads as empty where it would go. The step is
// loaded first, so a key is read only once its slot is filled.
func (r *guardRun) slot(k uint64, end int) *indexSlot {
	mask := uint64(len(r.slots) - 1)
	for h := (k * 0x9E3779B97F4A7C15) >> r.shift; ; h++ {
		if s := &r.slots[h&mask]; int(s.step.Load()) >= end || s.key == k {
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
	return min(int(r.slot(w, r.end).step.Load()), r.end)
}

// next returns the step after i in i's chain, or end.
func (r *guardRun) next(i int) int { return min(int(r.links[i-r.start].Load()), r.end) }
