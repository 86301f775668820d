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
//     conjunction (And-trees, multiple guards) is lowered into one
//     contiguous array of leaf comparisons (flatPred) shared by the whole
//     plan, evaluated by a branch-predictable switch with no recursion and
//     no per-guard indirect call;
//   - runs of steps that start with an equality test on the same argument
//     are entered through the guard index (tree.go): one hash of the
//     argument word replaces the scan over every other constant;
//   - handler bodies are lowered into the step record (flatStep), so the
//     common inline bodies run without touching *Body or *Binding;
//   - one per-frame stencil (flatFrame) specialized over (no-result,
//     result-fold) × (guarded, unguarded) is selected once at compile time,
//     so a raise runs straight-line code with no per-raise shape switching;
//     the single-raise entry and the batch entry both call it;
//   - statistics are batched: per-binding fire counts go through one
//     stripe shard index hoisted by the caller (Binding.FireCount), and the
//     event-level fired total is added once per raise to Env.FiredTotal
//     instead of once per firing through Env.OnFire — the striped-atomic
//     traffic that dominated the inline-plan profile drops from 2 RMWs per
//     firing plus 1 per raise to 1 per firing plus 2 per raise, all through
//     one shard hash.
//
// Specialization is semantics-preserving and only replaces configurations
// the general executor handles bitwise-identically when
// Options.DisableSpecialize keeps it off; the differential fuzzers
// (FuzzPredCompile, FuzzTreeDispatch, FuzzBatchDispatch) compare every
// specialized shape against naive reference evaluation.
//
// Eligibility (compileFlat): every step synchronous and unfiltered, no
// fault-capture hook (recovery barriers live in the general executor), and
// no unguarded direct bypass (already a plain call). Metered raises
// (Env.CPU != nil) always take the general executor so the virtual-time
// charge sequence stays byte-identical to the ablation tables.

// flatPred ops beyond the inlinable PredOp leaves: an arbitrary predicate
// subtree evaluated through Pred.Eval, and an out-of-line guard function.
const (
	predOpTree PredOp = -1
	predOpCall PredOp = -2
)

// flatPred is one lowered guard leaf. All leaves of a step's guard
// conjunction are contiguous in Plan.flatPreds; evaluation short-circuits
// at the first failing leaf.
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
	bop    BodyOp
	bv     any
	bcell  *atomic.Uint64
	bk     uint64
	barg   int
	// Out-of-line body (inline == false).
	fn    HandlerFn
	ctxFn CtxHandlerFn
	clo   any
	// Statistics: per-binding fire counter (may be nil) and the opaque tag
	// for the per-fire Env.OnFire fallback.
	fire *stripe.Counter
	tag  any
}

// frameFn is a stencil instantiation: selected once per plan, called once
// per frame. idx is the caller's hoisted stripe shard index
// (stripe.Index()), reused for every striped counter the frame touches.
type frameFn func(p *Plan, env *Env, args []any, idx int) Outcome

// flattenPred lowers a guard predicate into conjunction leaves. Top-level
// And-trees split into their leaves; True leaves are elided (guards are
// FUNCTIONAL, so elision is unobservable); any other composite (Or, Not)
// stays a single Eval-fallback leaf. Returns false when the predicate can
// never pass (a constant-false leaf under DisablePeephole still lowers —
// the step simply never fires, same as in the general executor).
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

// lowerBody fills a flatStep's body fields from one step, mirroring
// runBody exactly: the inline body runs embedded when the step compiled
// inline; otherwise CtxFn is preferred over Fn.
func (fs *flatStep) lowerBody(st *step) {
	b := st.b
	fs.inline = st.inline
	fs.tag = b.Tag
	fs.fire = b.FireCount
	if st.inline {
		body := b.Inline
		fs.bop = body.Op
		fs.bv = body.V
		fs.bcell = body.Cell
		fs.bk = body.K
		fs.barg = body.Arg
		return
	}
	fs.fn = b.Fn
	fs.ctxFn = b.CtxFn
	fs.clo = b.Closure
}

// compileFlat lowers the plan into its flattened form and selects the
// stencil, or leaves the plan on the general executor when any
// step needs machinery the straight-line executors do not carry.
func (p *Plan) compileFlat() {
	if p.opts.DisableSpecialize || p.protect != nil || p.direct != nil {
		return
	}
	leaves := 0
	for i := range p.steps {
		b := p.steps[i].b
		if b.Async || b.Ephemeral || b.Filter {
			return
		}
		// A lower bound on the leaf count (And-trees split further), so the
		// common one-leaf-per-guard plan fills the pool without regrowing.
		leaves += len(p.steps[i].guards)
	}
	flat := make([]flatStep, len(p.steps))
	preds := make([]flatPred, 0, leaves)
	for i := range p.steps {
		st := &p.steps[i]
		fs := &flat[i]
		start := len(preds)
		for gi := range st.guards {
			g := &st.guards[gi]
			switch {
			case g.Pred != nil:
				// With inlining disabled the general executor still evaluates the
				// predicate out of line via Eval; lowering it to leaves is
				// observationally identical (metered charge differences do
				// not apply — metered raises take the general executor).
				preds = flattenPred(g.Pred, preds)
			default:
				preds = append(preds, flatPred{op: predOpCall, fn: g.Fn, clo: g.Closure})
			}
		}
		if len(preds) > start {
			// Hoist the first leaf into the step record; the pool keeps the
			// slot so later steps' ranges stay simple offsets.
			fs.g0 = preds[start]
			fs.p0 = int32(start + 1)
		} else {
			fs.p0 = int32(start)
		}
		fs.p1 = int32(len(preds))
		fs.lowerBody(st)
	}
	var def *flatStep
	if p.def != nil {
		def = &flatStep{}
		def.lowerBody(p.def)
	}
	p.flat = flat
	p.flatPreds = preds
	p.flatDefault = def

	// Select the stencil. Arity is not a shape axis: the stencil never
	// reads it (argWord bounds-checks against the frame itself).
	guards := len(preds) > 0
	switch {
	case p.info.HasResult && guards:
		p.frame, p.frameName = flatFrame[resultFold, guarded], "stencil[fold,guarded]"
	case p.info.HasResult:
		p.frame, p.frameName = flatFrame[resultFold, unguarded], "stencil[fold,unguarded]"
	case guards:
		p.frame, p.frameName = flatFrame[resultVoid, guarded], "stencil[void,guarded]"
	default:
		p.frame, p.frameName = flatFrame[resultVoid, unguarded], "stencil[void,unguarded]"
	}
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
	return p.frame != nil && len(p.flat) == 1 && len(p.flatPreds) > 0
}

// Shape markers. The stencil is instantiated over every (result, guarded)
// combination so each shape is a distinct straight-line function chosen
// once at compile time. Each marker has a distinct size on purpose: Go's
// gcshape stenciling folds all zero-size type arguments into one shared
// instantiation whose shape methods dispatch through a generics dictionary
// at run time. Distinct sizes force a fully stenciled instantiation per
// shape, so the methods below resolve to constants at compile time and each
// instantiation's dead branches (the guard walk in unguarded shapes, the
// result fold in void shapes) are eliminated outright — the closest Go gets
// to the paper's per-plan generated stubs.
type (
	resultVoid [1]byte
	resultFold [2]byte
)

type (
	unguarded [1]byte
	guarded   [2]byte
)

type resultSpec interface{ hasResult() bool }

func (resultVoid) hasResult() bool { return false }
func (resultFold) hasResult() bool { return true }

type guardSpec interface{ guarded() bool }

func (unguarded) guarded() bool { return false }
func (guarded) guarded() bool   { return true }

// runFlatBody executes one lowered step body and returns its result,
// mirroring runBody exactly.
func runFlatBody(s *flatStep, args []any) any {
	if s.inline {
		switch s.bop {
		case BodyReturnConst:
			return s.bv
		case BodyAddWord:
			if s.bcell != nil {
				s.bcell.Add(s.bk)
			}
		case BodyReturnArg:
			if s.barg >= 0 && s.barg < len(args) {
				return args[s.barg]
			}
		}
		return nil
	}
	if s.ctxFn != nil {
		return s.ctxFn(context.Background(), s.clo, args)
	}
	return s.fn(s.clo, args)
}

// flatFrame is the one stencil behind every specialized shape: it runs one
// frame (one raise's argument vector) through the flattened plan. The type
// parameters pin the shape at instantiation: because the marker types have
// distinct sizes (see above), each of the four instantiations is its own
// stenciled function where hasResult/useGuards are compile-time constants
// and the branches they gate are folded away.
//
// Statistics protocol: when env.FiredTotal is set (the dispatcher's
// batched path), per-binding counts go to FireCount through the caller's
// hoisted stripe shard index, and the CALLER adds Outcome.fires() to
// FiredTotal — once per raise (Plan.Execute) or once per batch
// (Plan.ExecuteBatch). Otherwise the stencil falls back to the general
// executor's per-fire env.OnFire contract, so direct codegen users observe
// identical callbacks.
func flatFrame[R resultSpec, G guardSpec](p *Plan, env *Env, args []any, idx int) Outcome {
	var rSpec R
	var gSpec G
	hasResult := rSpec.hasResult()
	useGuards := gSpec.guarded()

	onFire := env.OnFire
	batched := env.FiredTotal != nil
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
	i, stop := 0, len(p.flat)
	if len(p.runs) > 0 {
		stop = p.runs[0].start
	}
segments:
	for {
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
						if !pr.fn(pr.clo, args) {
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
			// The inline-body cases are open-coded (rather than calling
			// runFlatBody) so the common Nop/ReturnConst/AddWord bodies run
			// without a call frame.
			var res any
			if s.inline {
				switch s.bop {
				case BodyReturnConst:
					res = s.bv
				case BodyAddWord:
					if s.bcell != nil {
						s.bcell.Add(s.bk)
					}
				case BodyReturnArg:
					if s.barg >= 0 && s.barg < len(args) {
						res = args[s.barg]
					}
				}
			} else if s.ctxFn != nil {
				res = s.ctxFn(context.Background(), s.clo, args)
			} else {
				res = s.fn(s.clo, args)
			}
			out.Fired++
			if batched {
				if s.fire != nil {
					s.fire.AddAt(idx, 1)
				}
			} else if onFire != nil {
				onFire(s.tag)
			}
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
		stop = len(p.flat)
		if ri < len(p.runs) {
			stop = p.runs[ri].start
		}
	}
	if out.Fired == 0 && p.flatDefault != nil {
		d := p.flatDefault
		out.Result = runFlatBody(d, args)
		out.UsedDefault = true
		if batched {
			if d.fire != nil {
				d.fire.AddAt(idx, 1)
			}
		} else if onFire != nil {
			onFire(d.tag)
		}
	}
	return out
}

// fires is the number of handler firings the outcome adds to the event's
// fired total: the handlers that ran plus a default-handler firing.
func (o Outcome) fires() int64 {
	if o.UsedDefault {
		return int64(o.Fired) + 1
	}
	return int64(o.Fired)
}
