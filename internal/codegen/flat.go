package codegen

import (
	"context"
	"sync/atomic"

	"spin/internal/stripe"
)

// Ahead-of-time plan specialization — the reproduction's answer to the
// paper's runtime code generation for the multi-binding case. The general
// executor in plan.go (Plan.general) dispatches per step through the step
// list, runBody, and `Body.Run`, paying a chain of branches and an indirect
// dispatch per step on every raise. SPIN's generator instead emitted one
// straight-line stub per plan. Go cannot emit machine code at runtime, but
// it can do the next-closest thing at plan-compile time:
//
//   - the guard decision structure is flattened: every step's guard
//     conjunction (And-trees, multiple guards) is lowered into leaf
//     comparisons (flatPred), evaluated by a branch-predictable switch with
//     no recursion and no per-guard indirect call;
//   - runs of steps that start with an equality test on the same argument
//     are entered through the guard index (tree.go): one hash of the
//     argument word replaces the scan over every other constant;
//   - handler bodies are lowered into the step record (flatStep), so the
//     common inline bodies run without touching *Body or *Binding; both
//     lowerings are memoised on the binding, so a recompile copies them;
//   - one per-frame stencil (flatFrame) specialized over (no-result,
//     result-fold) × (guarded, unguarded) × (bare, fault barrier) is
//     selected once at compile time, so a raise runs straight-line code with
//     no per-raise shape switching; the single-raise entry and the batch
//     entry both call it;
//   - statistics are batched, as on every executor (see Execute): one
//     striped add per firing and one fired-total add per raise, all through
//     one shard hash hoisted by the caller, because striped-atomic traffic
//     re-hashed per firing dominated the inline-plan profile.
//
// Specialization is semantics-preserving and only replaces configurations
// the general executor handles bitwise-identically when
// Options.DisableSpecialize keeps it off; the differential fuzzers
// (FuzzPredCompile, FuzzTreeDispatch, FuzzBatchDispatch) compare every
// specialized shape against naive reference evaluation.
//
// Eligibility (compileFlat): every step synchronous and unfiltered, and no
// unguarded direct bypass (already a plain call). A fault-capture hook
// (Options.Protect) does not take a plan off the stencil: it selects the
// barrier instantiations, which run the same walk under one recover barrier
// per frame (exec_protect.go). Metered raises (Env.CPU != nil) always take
// the general executor so the virtual-time charge sequence stays
// byte-identical to the ablation tables.

// flatPred ops beyond the inlinable PredOp leaves: an arbitrary predicate
// subtree evaluated through Pred.Eval, and an out-of-line guard function.
const (
	predOpTree PredOp = -1
	predOpCall PredOp = -2
)

// flatPred is one lowered guard leaf. A step's first leaf is embedded in
// its flatStep, the rest are contiguous in Plan.flatPreds; evaluation
// short-circuits at the first failing leaf.
type flatPred struct {
	op   PredOp
	arg  int
	k    uint64
	cell *atomic.Uint64
	tree *Pred   // predOpTree: Or/Not subtree, evaluated via Eval
	fn   GuardFn // predOpCall: out-of-line guard
	clo  any
}

// flatStep is one pre-lowered dispatch step: guard range, handler body,
// and statistics hook, with no pointer chase through step/Binding/Body on
// the hot path.
type flatStep struct {
	// g0 is the step's first guard leaf, embedded so the overwhelmingly
	// common single-guard step never touches the shared pool; its zero
	// value (PredTrue) always passes. p0..p1 index any remaining leaves in
	// Plan.flatPreds.
	g0     flatPred
	p0, p1 int32
	// Inline body, embedded (inline == true).
	inline bool
	body   Body
	// Out-of-line body (inline == false).
	fn    HandlerFn
	ctxFn CtxHandlerFn
	clo   any
	// Statistics: per-binding fire counter (may be nil); the opaque tag
	// names the binding to the fault hook.
	fire *stripe.Counter
	tag  any
}

// frameFn is a stencil instantiation: selected once per plan, called once
// per frame. idx is the caller's hoisted stripe shard index
// (stripe.Index()), reused for every striped counter the frame touches;
// callers pass a nil ws (see flatFrame). The stencil needs nothing from
// the Env: it runs unmetered raises of plans with no asynchronous or
// ephemeral step, and the caller adds the frame's firings to the total.
type frameFn func(p *Plan, args []any, idx int, ws *walkState) Outcome

// flattenPred lowers a guard predicate into conjunction leaves. Top-level
// And-trees split into their leaves; True leaves are elided (guards are
// FUNCTIONAL, so elision is unobservable); any other composite (Or, Not)
// stays a single Eval-fallback leaf. A constant-false leaf under
// DisablePeephole still lowers — the step simply never fires, same as in
// the general executor.
func flattenPred(p *Pred, out []flatPred) []flatPred {
	switch p.Op {
	case PredAnd:
		return flattenPred(p.R, flattenPred(p.L, out))
	case PredTrue:
		return out
	case PredFalse:
		return append(out, flatPred{op: PredFalse})
	case PredGlobalEq, PredGlobalNe:
		if p.Cell == nil {
			// Pred.Eval treats a nil cell as false; preserve that.
			return append(out, flatPred{op: PredFalse})
		}
		return append(out, flatPred{op: p.Op, cell: p.Cell, k: p.K})
	case PredArgEq, PredArgNe, PredArgLt:
		return append(out, flatPred{op: p.Op, arg: p.Arg, k: p.K})
	default:
		return append(out, flatPred{op: predOpTree, tree: p})
	}
}

// flatten lowers the compiled step into its flattened twin: the guard
// conjunction as leaves, the first hoisted into the step record, and the
// body, mirroring runBody exactly (the inline body when the step compiled
// inline; otherwise CtxFn is preferred over Fn).
func (lo *lowered) flatten() {
	var buf [4]flatPred // the usual binding has a leaf or two and none past g0
	leaves := buf[:0]
	for gi := range lo.st.guards {
		if g := &lo.st.guards[gi]; g.Pred != nil {
			leaves = flattenPred(g.Pred, leaves)
		} else {
			leaves = append(leaves, flatPred{op: predOpCall, fn: g.Fn, clo: g.Closure})
		}
	}
	if lo.leaves = len(leaves); lo.leaves > 0 {
		lo.flat.g0 = leaves[0]
		lo.rest = append([]flatPred(nil), leaves[1:]...)
	}
	b, fs := lo.st.b, &lo.flat
	fs.tag, fs.fire = b.Tag, b.FireCount
	if fs.inline = lo.st.inline; fs.inline {
		fs.body = *b.Inline
	} else {
		fs.fn, fs.ctxFn, fs.clo = b.Fn, b.CtxFn, b.Closure
	}
}

// stencils holds the flatFrame instantiations, indexed result<<2 |
// guarded<<1 | barrier. Arity is not a shape axis: the stencil never reads
// it (argWord bounds-checks against the frame itself).
var stencils = [8]struct {
	fn   frameFn
	name string
}{
	{flatFrame[off, off, off], "stencil[void,unguarded]"},
	{flatFrame[off, off, on], "stencil[void,unguarded,barrier]"},
	{flatFrame[off, on, off], "stencil[void,guarded]"},
	{flatFrame[off, on, on], "stencil[void,guarded,barrier]"},
	{flatFrame[on, off, off], "stencil[fold,unguarded]"},
	{flatFrame[on, off, on], "stencil[fold,unguarded,barrier]"},
	{flatFrame[on, on, off], "stencil[fold,guarded]"},
	{flatFrame[on, on, on], "stencil[fold,guarded,barrier]"},
}

// compileFlat assembles the plan's flattened form from its bindings'
// memoised lowerings (pooled of their leaves go to the pool) and selects
// the stencil, or leaves the plan on the general executor when a step
// needs machinery the straight-line executors do not carry.
func (p *Plan) compileFlat(pooled int) {
	if p.opts.DisableSpecialize || p.direct != nil || p.hasFilter || p.retains {
		return
	}
	p.flat = make([]flatStep, len(p.steps), len(p.steps)+1)
	p.flatPreds = make([]flatPred, 0, pooled)
	for i := range p.steps {
		lo := p.steps[i].b.lower(p.opts)
		fs := &p.flat[i]
		*fs = lo.flat
		fs.p0 = int32(len(p.flatPreds))
		p.flatPreds = append(p.flatPreds, lo.rest...)
		fs.p1 = int32(len(p.flatPreds))
		p.leaves += lo.leaves
	}
	if p.def != nil {
		// The default handler's statistics record rides behind the last step.
		p.flat = append(p.flat, flatStep{tag: p.def.b.Tag, fire: p.def.b.FireCount})
	}
	shape := 0
	for i, set := range [3]bool{p.protect != nil, p.leaves > 0, p.info.HasResult} {
		if set {
			shape |= 1 << i
		}
	}
	p.frame, p.frameName = stencils[shape].fn, stencils[shape].name
}

// Specialized reports whether the plan compiled to a flattened,
// shape-specialized executor (for tests and disassembly).
func (p *Plan) Specialized() bool { return p.frame != nil }

// GuardedBypass reports whether the plan is a single guarded step compiled
// straight-line — the guarded resident of the bypass tier: the raise skips
// the general executor entirely and the stencil runs one embedded guard
// conjunction and one embedded body with no step loop. (The unguarded
// resident is Direct.)
func (p *Plan) GuardedBypass() bool {
	return p.frame != nil && len(p.steps) == 1 && p.leaves > 0
}

// Shape markers. The stencil is instantiated over every (result, guarded,
// barrier) combination so each shape is a distinct straight-line function
// chosen once at compile time. Go compiles one body per GC shape — here the
// markers' array types — and a method on a marker would dispatch through
// the generics dictionary at run time, so flatFrame reads an axis off its
// marker's length: len of an array type is a constant where the shape is
// compiled, and each instantiation's dead branches (the guard walk in
// unguarded shapes, the result fold in void shapes, the walk-state stores
// in bare shapes) are eliminated outright — the closest Go gets to the
// paper's per-plan generated stubs.
type (
	off [1]byte
	on  [2]byte
)

type shapeAxis interface{ ~[1]byte | ~[2]byte }

// flatFrame is the one stencil behind every specialized shape: it runs one
// frame (one raise's argument vector) through the flattened plan. The type
// parameters pin the shape: in each of the eight instantiations
// hasResult/useGuards/barrier are constants and the branches they gate are
// folded away.
//
// A barrier instantiation (exec_protect.go) is entered with a nil ws and
// re-enters itself through walkBehindBarrier with the frame's walkState
// until the walk is done. The walk keeps its state in locals, as the bare
// shapes do, and writes ws where a capture would need it: the segment at
// each segment, the step and phase around each guard and handler call, the
// outcome after each firing.
//
// Statistics: each firing goes to its binding's FireCount through the
// caller's hoisted stripe shard index, and the CALLER adds Outcome.fires()
// to Env.FiredTotal — once per raise (Plan.Execute) or once per batch
// (Plan.ExecuteBatch).
func flatFrame[R, G, B shapeAxis](p *Plan, args []any, idx int, ws *walkState) Outcome {
	var r R
	var g G
	var b B
	hasResult, useGuards, barrier := len(r) == len(on{}), len(g) == len(on{}), len(b) == len(on{})

	preds := p.flatPreds
	var out Outcome
	var haveResult bool
	// The plan runs as a sequence of segments: outside the guard index, the
	// linear stretch up to the next run (or the plan's end); inside a run,
	// one step the lookup hit, re-entered along that step's chain. The step
	// loop is the same either way, and the walk is advanced between
	// segments, never per step: a plan with no indexed run is one segment
	// and pays for the index once per raise. A hit step runs whole:
	// re-testing the equality the lookup just decided is one compare on the
	// few steps that match.
	ri := 0        // the next run of p.runs
	inRun := false // walking the hits of run ri-1
	n := len(p.steps)
	i, stop := 0, n
	if len(p.runs) > 0 {
		stop = p.runs[0].start
	}
	if barrier {
		if ws == nil {
			frame := walkState{stop: stop}
			for frame.phase != walkDone {
				walkBehindBarrier[R, G](p, args, idx, &frame)
			}
			return frame.out
		}
		out, haveResult, ri, inRun, i, stop = ws.out, ws.haveResult, ws.ri, ws.inRun, ws.pos, ws.stop
	}
segments:
	for {
		if barrier {
			ws.ri, ws.inRun, ws.stop = ri, inRun, stop
		}
		seg := p.flat[i:stop]
	steps:
		for k := range seg {
			s := &seg[k]
			if useGuards {
				// The embedded first leaf (g0) evaluates without touching the
				// shared pool; pooled leaves (p0..p1) follow. One switch in the
				// source serves both, walked leaf-by-leaf.
				pr := &s.g0
				j := s.p0
				for {
					switch pr.op {
					case PredGlobalEq:
						if pr.cell.Load() != pr.k {
							continue steps
						}
					case PredGlobalNe:
						if pr.cell.Load() == pr.k {
							continue steps
						}
					case PredArgEq:
						if w, ok := argWord(args, pr.arg); !ok || w != pr.k {
							continue steps
						}
					case PredArgNe:
						if w, ok := argWord(args, pr.arg); !ok || w == pr.k {
							continue steps
						}
					case PredArgLt:
						if w, ok := argWord(args, pr.arg); !ok || w >= pr.k {
							continue steps
						}
					case PredFalse:
						continue steps
					case predOpTree:
						if !pr.tree.Eval(args) {
							continue steps
						}
					case predOpCall:
						if barrier {
							ws.pos, ws.phase = i+k, inGuard
						}
						pass := pr.fn(pr.clo, args)
						if barrier {
							ws.phase = inWalk
						}
						if !pass {
							continue steps
						}
					}
					if j >= s.p1 {
						break
					}
					pr = &preds[j]
					j++
				}
			}
			var res any
			if barrier {
				ws.pos, ws.phase = i+k, inHandler
			}
			if s.inline {
				res = s.body.Run(args)
			} else if s.ctxFn != nil {
				res = s.ctxFn(context.Background(), s.clo, args)
			} else {
				res = s.fn(s.clo, args)
			}
			if barrier {
				ws.phase = inWalk
			}
			out.Fired++
			countFire(s.fire, idx)
			if hasResult {
				if p.resultFn != nil {
					out.Result = p.resultFn(out.Result, res, out.Fired-1)
				} else {
					if haveResult {
						out.Ambiguous = true
					}
					out.Result = res
					haveResult = true
				}
			}
			if barrier {
				ws.out, ws.haveResult = out, haveResult
			}
		}
		// Segment boundary. The run state lives in p.runs, re-read here, so
		// the step loop above carries nothing for it.
		switch {
		case inRun:
			// The segment was the hit step stop-1: follow its chain.
			i = p.runs[ri-1].next(stop - 1)
		case ri < len(p.runs):
			// The segment ended at the head of the next run: look the
			// argument up.
			i = p.runs[ri].find(args)
			ri++
			inRun = true
		default:
			break segments
		}
		if i != p.runs[ri-1].end {
			stop = i + 1
			continue
		}
		// The run is exhausted (or missed outright): resume the linear scan
		// behind it.
		inRun = false
		stop = n
		if ri < len(p.runs) {
			stop = p.runs[ri].start
		}
	}
	if st := p.def; out.Fired == 0 && st != nil {
		if barrier {
			ws.pos, ws.phase = n, inDefault
		}
		out.Result = runBody(st.b, st.inline, args)
		out.UsedDefault = true
		countFire(p.flat[n].fire, idx)
	}
	if barrier {
		ws.out, ws.phase = out, walkDone
	}
	return out
}

// countFire records one firing on a binding's fire counter, if it has one,
// on the caller's hoisted stripe shard idx.
func countFire(c *stripe.Counter, idx int) {
	if c != nil {
		c.AddAt(idx, 1)
	}
}

// addFired adds n firings to the event's fired total, if the caller keeps
// one: the one add per raise (or batch) of the statistics protocol.
func (env *Env) addFired(idx int, n int64) {
	if n > 0 && env.FiredTotal != nil {
		env.FiredTotal.AddAt(idx, n)
	}
}

// fires is the number of handler firings the outcome adds to the event's
// fired total: the handlers that ran plus a default-handler firing.
func (o Outcome) fires() int64 {
	if o.UsedDefault {
		return int64(o.Fired) + 1
	}
	return int64(o.Fired)
}
