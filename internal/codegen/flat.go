package codegen

import (
	"context"
	"sync/atomic"

	"spin/internal/trace"
	"spin/internal/vtime"
)

// Ahead-of-time plan specialization — the reproduction's answer to SPIN's
// one straight-line stub per plan. At plan-compile time every step's guard
// conjunction is lowered into leaf comparisons (flatPred) and its handler
// body into the step record (flatStep), both memoised on the binding; runs
// of equality-first steps get the guard index (tree.go). One per-frame
// stencil (flatFrame) runs the result, instantiated over (void, fold) ×
// (unguarded, guarded) × (bare, fault barrier) × (plain, observed), the
// observed bodies ignoring the guard axis: 12 bodies, chosen per plan and
// per raise, none switching on shape per step.
//
// Every plan but the direct bypass runs the stencil. The bypass has the
// same plain/observed split: an unmetered, unsampled, unprotected raise runs
// its body inline in Plan.Execute, every other one executeDirect. Every
// other unmetered, unsampled raise runs the plan's plain instantiation
// (Plan.frame), whose step loop runs only synchronous steps: a filter,
// async or ephemeral step is a segment boundary, run between stretches by
// the one step helper (runStep), so a plan without one pays no per-step
// test for it. The observed instantiation (Plan.observe) serves only the
// model clock and sampled tracing: it runs every step through runStep,
// which charges the vtime costs the §3 tables are calibrated on — once per
// guard, not per leaf, and once per lookup of an indexed run — and records
// spans. Options.Protect selects the barrier instantiations: the same walk
// under one recover barrier per frame (exec_protect.go). The fuzzers hold
// every shape against a naive reference model; testdata/observed.golden
// pins the observed walk.
//
// Statistics: the caller counts each frame once in its raised total before
// the plan runs it, so an executor writes only a frame's firings beyond one
// (Env.FiredExcess) — one add per raise when there are any, none for the
// bypass and every raise that fires exactly one handler.

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

// flatStep is one pre-lowered dispatch step: guard range, handler body and
// fault tag, with no pointer chase through step/Binding/Body on the hot
// path.
type flatStep struct {
	// g0 is the step's first guard leaf, embedded so the common single-guard
	// step never touches the shared pool; its zero value (PredTrue) always
	// passes. p0..p1 index any remaining leaves in Plan.flatPreds.
	g0     flatPred
	p0, p1 int32
	// Inline body, embedded (inline == true).
	inline bool
	body   Body
	// Out-of-line body (inline == false): fn is nil when ctxFn is set, so
	// the stencil's first test picks the plain body.
	fn    HandlerFn
	ctxFn CtxHandlerFn
	clo   any
	// tag names the binding to the fault hook.
	tag any
}

// frameFn is a plain stencil instantiation: selected once per plan, called
// once per frame with a nil ws (see flatFrame). It needs nothing from the
// Env — the step supervisors are the plan's — and touches no counter:
// besides the outcome it returns the frame's firings — handlers, filters
// and a default-handler firing — of which the caller adds those beyond one
// per frame to Env.FiredExcess.
type frameFn func(p *Plan, args []any, ws *walkState) (Outcome, int64)

// flattenPred lowers a simplified guard predicate into conjunction leaves.
// Top-level And-trees split into their leaves, which the peephole has
// already cleared of True and False; any other composite (Or, Not) stays a
// single Eval-fallback leaf.
func flattenPred(p *Pred, out []flatPred) []flatPred {
	switch p.Op {
	case PredAnd:
		return flattenPred(p.R, flattenPred(p.L, out))
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
	if len(leaves) > 0 {
		lo.flat.g0 = leaves[0]
		lo.rest = append([]flatPred(nil), leaves[1:]...)
	}
	b, fs := lo.st.b, &lo.flat
	fs.tag = b.Tag
	if fs.inline = lo.st.inline; fs.inline {
		fs.body = *b.Inline
	} else if fs.ctxFn, fs.clo = b.CtxFn, b.Closure; fs.ctxFn == nil {
		fs.fn = b.Fn
	}
}

// stencils holds the plain flatFrame instantiations, indexed result<<2 |
// guarded<<1 | barrier. Arity is not a shape axis: the stencil never reads
// it (argWord bounds-checks against the frame itself).
var stencils = [8]frameFn{
	flatFrame[off, off, off, off], flatFrame[off, off, on, off],
	flatFrame[off, on, off, off], flatFrame[off, on, on, off],
	flatFrame[on, off, off, off], flatFrame[on, off, on, off],
	flatFrame[on, on, off, off], flatFrame[on, on, on, off],
}

// selectStencil selects the plan's plain stencil, which every plan but the
// direct bypass gets.
func (p *Plan) selectStencil() {
	if p.direct != nil {
		return
	}
	shape := 0
	for i, set := range [3]bool{p.protect != nil, p.leaves > 0, p.info.HasResult} {
		if set {
			shape |= 1 << i
		}
	}
	p.frame = stencils[shape]
}

// GuardedBypass reports whether the plan is a single guarded step compiled
// straight-line — the guarded resident of the bypass tier (the unguarded
// one is Direct).
func (p *Plan) GuardedBypass() bool {
	return p.frame != nil && len(p.steps) == 1 && p.leaves > 0
}

// Shape markers. Go compiles one body per GC shape — here the markers'
// array types — and a method on a marker would dispatch through the
// generics dictionary at run time, so flatFrame reads an axis off its
// marker's length: a constant where the shape is compiled, so each
// instantiation's dead branches (the leaf walk in unguarded shapes, the
// fold in void shapes, the walk-state stores in bare shapes, the charges
// and spans in plain shapes) are eliminated outright — the closest Go gets
// to the paper's per-plan generated stubs.
type (
	off [1]byte
	on  [2]byte
)

type shapeAxis interface{ ~[1]byte | ~[2]byte }

// flatFrame is the one stencil behind every shape: it runs one frame (one
// raise's argument vector) through the flattened plan.
//
// A plain instantiation is entered with a nil ws. Its step loop runs the
// synchronous steps of each stretch, testing their lowered guard leaves,
// and it runs each boundary step at a segment boundary (runStep). An
// observed one is entered with a ws holding the raise's Env and recorder
// (Plan.observe) and runs every step through runStep, which charges and
// records it; it charges each lookup in the guard index as one inline
// guard. A barrier instantiation (exec_protect.go) re-enters itself through
// walkBehindBarrier until the walk is done, keeping its state in locals and
// writing ws only where a capture reads it: the segment at each segment,
// the step and phase before each guard call and handler body (nothing
// after: see walkPhase), and after each firing the outcome, or on a void
// event only its firing count.
//
// The stencil counts firings only in what it returns: the Outcome, and the
// frame's firings, filters included, of which the caller adds those beyond
// one to Env.FiredExcess, if any.
func flatFrame[R, G, B, O shapeAxis](p *Plan, args []any, ws *walkState) (Outcome, int64) {
	var r R
	var g G
	var b B
	var o O
	hasResult, useGuards, barrier, obs := len(r) == len(on{}), len(g) == len(on{}), len(b) == len(on{}), len(o) == len(on{})

	preds := p.flatPreds
	var out Outcome
	var haveResult bool
	var filtered int64 // filter firings, which the Outcome does not count
	var cpu *vtime.CPU
	var rec *recorder
	if obs {
		cpu, rec = ws.env.CPU, ws.recorder()
	}
	// The plan runs as a sequence of segments: outside the guard index, the
	// linear stretch up to the next run or boundary step (or the plan's
	// end); inside a run, one step the lookup hit, along that step's chain.
	// The walk advances between segments, never per step, so a plan with no
	// indexed run or boundary step pays for them once per raise. A hit step
	// runs whole: re-testing the equality the lookup decided is one compare
	// on the few that match.
	ri, bi := 0, 0 // the next run of p.runs, the next boundary of p.bounds
	inRun := false // walking the hits of run ri-1
	n := len(p.steps)
	i, stop := 0, p.stretchEnd(0, 0)
	if barrier {
		if ws == nil || ws.phase == walkEntry {
			var frame walkState
			if ws == nil {
				ws = &frame
			}
			ws.stop, ws.phase = stop, inWalk
			for ws.phase != walkDone {
				walkBehindBarrier[R, G, O](p, args, ws)
			}
			return ws.out, ws.out.fires() + ws.filtered
		}
		out, haveResult, filtered = ws.out, ws.haveResult, ws.filtered
		ri, bi, inRun, i, stop = ws.ri, ws.bi, ws.inRun, ws.pos, ws.stop
	}
segments:
	for {
		if barrier {
			ws.ri, ws.bi, ws.inRun, ws.stop = ri, bi, inRun, stop
		}
		// The observed walk runs the segment one runStep at a time, which
		// leaves the step loop below, the plain walk's, an empty stretch.
		for ; obs && i < stop; i++ {
			p.runStep(i, inRun, args, ws, &out, &haveResult)
			if barrier {
				ws.out, ws.haveResult = out, haveResult
			}
		}
		seg := p.flat[i:stop]
	steps:
		for k := range seg {
			s := &seg[k]
			if useGuards {
				if pr := &s.g0; pr.op == predOpCall && s.p0 == s.p1 {
					// A lone call guard, the commonest guarded step: no leaf
					// switch.
					if barrier {
						ws.pos, ws.phase = i+k, inGuard
					}
					if !pr.fn(pr.clo, args) {
						continue steps
					}
				} else {
					// The embedded first leaf (g0), then the pooled ones
					// (p0..p1), through one switch.
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
							if barrier {
								ws.phase = inWalk
							}
							if !pr.tree.Eval(args) {
								continue steps
							}
						case predOpCall:
							if barrier {
								ws.pos, ws.phase = i+k, inGuard
							}
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
			}
			if barrier {
				ws.pos, ws.phase = i+k, inHandler
			}
			var res any
			if s.fn != nil {
				res = s.fn(s.clo, args)
			} else if s.inline {
				res = s.body.Run(args)
			} else {
				res = s.ctxFn(context.Background(), s.clo, args)
			}
			out.Fired++
			if !hasResult {
				if barrier {
					ws.out.Fired = out.Fired
				}
				continue
			}
			if p.resultFn != nil {
				if barrier {
					ws.phase = inWalk
				}
				out.Result = p.resultFn(out.Result, res, out.Fired-1)
			} else {
				if haveResult {
					out.Ambiguous = true
				}
				out.Result = res
				haveResult = true
			}
			if barrier {
				ws.out, ws.haveResult = out, haveResult
			}
		}
		if barrier {
			ws.phase = inWalk
		}
		// Segment boundary: the run and boundary state is re-read from p.runs
		// and p.bounds here, so the step loop carries nothing for it.
		switch {
		case inRun:
			// The segment was the hit step stop-1: follow its chain.
			if i = p.runs[ri-1].next(stop - 1); i != p.runs[ri-1].end {
				stop = i + 1
				continue
			}
			// The run is exhausted: resume the linear scan behind it.
			inRun = false
		case bi < len(p.bounds) && p.bounds[bi] == stop:
			// A boundary step: run it between the stretches on either side,
			// after setting up the next one, where a capture resumes. It
			// never joins a run (indexKey), so a run head behind a filter
			// looks up the argument as the filter left it.
			at := stop
			bi++
			i, stop = at+1, p.stretchEnd(ri, bi)
			if barrier {
				ws.bi, ws.stop = bi, stop
			}
			if p.runStep(at, false, args, ws, &out, &haveResult) {
				filtered++
			}
			if barrier {
				ws.out, ws.haveResult, ws.filtered = out, haveResult, filtered
			}
			continue
		case ri < len(p.runs):
			// The head of the next run: look the argument up — one inline
			// guard, recorded as step -1, passing when any step matched.
			if obs {
				rec.open()
				cpu.Charge(vtime.GuardInline)
			}
			i = p.runs[ri].find(args)
			ri++
			if obs && rec != nil {
				rec.guard(-1, 0, true, i != p.runs[ri-1].end)
			}
			if i != p.runs[ri-1].end {
				inRun = true
				stop = i + 1
				continue
			}
			// A miss: resume the linear scan behind the run.
		default:
			break segments
		}
		stop = p.stretchEnd(ri, bi)
	}
	if st := p.def; out.Fired == 0 && st != nil {
		if obs {
			rec.open()
			cpu.Charge(vtime.HandlerIndirect)
		}
		if barrier {
			ws.pos, ws.phase = n, inDefault
		}
		out.Result = runBody(st.b, st.inline, args)
		out.UsedDefault = true
		if obs && rec != nil {
			rec.handler(st.idx, trace.ModeDefault, true)
		}
	}
	if barrier {
		ws.out, ws.phase = out, walkDone
	}
	return out, out.fires() + filtered
}

// stretchEnd is where the linear stretch ahead of a walk ends: at run ri's
// head, at boundary step bi, or at the plan's end.
func (p *Plan) stretchEnd(ri, bi int) int {
	n := len(p.steps)
	if ri < len(p.runs) {
		n = p.runs[ri].start
	}
	if bi < len(p.bounds) && p.bounds[bi] < n {
		n = p.bounds[bi]
	}
	return n
}

// runStep runs step at (hit: by an index lookup) and folds it into the
// frame's outcome: every step of the observed walk, and each boundary step
// of the plain one. Through ws's Env, if any, it charges and records the
// guards (evalGuards), the handler invocation and span, and the merge. A
// filter is not a handling (§2.3): its result is dropped and it reports
// filter instead. An async step goes to the plan's spawner and an
// ephemeral one to its supervisor, whose result folds only if it
// completed. Behind a barrier ws says which call is in flight: a panicking
// guard or body is captured, a panicking supervisor is not (walkPhase).
func (p *Plan) runStep(at int, hit bool, args []any, ws *walkState, out *Outcome, haveResult *bool) (filter bool) {
	st := &p.steps[at]
	if len(st.guards) > 0 && !p.evalGuards(st, hit, args, ws) {
		return false
	}
	cpu, rec := ws.meter()
	rec.open()
	if cpu != nil {
		p.chargeHandler(cpu, st)
	}
	var res any
	completed := true
	switch st.mode {
	case trace.ModeAsync:
		p.async(p.admitQ, st.b.Tag, p.info.Arity, invoker(st.b, args))
	case trace.ModeEphemeral:
		res, completed = p.ephemeral(st.b.Tag, invoker(st.b, args))
	default:
		if ws != nil {
			ws.pos, ws.phase = at, inHandler
		}
		res = runBody(st.b, st.inline, args)
		if ws != nil {
			ws.phase = inWalk
		}
	}
	if rec != nil {
		rec.handler(st.idx, st.mode, completed)
	}
	if st.mode == trace.ModeFilter {
		return true
	}
	out.Fired++
	switch {
	case !p.info.HasResult || !completed || st.mode == trace.ModeAsync:
	case p.resultFn != nil:
		rec.open()
		cpu.Charge(vtime.ResultMerge)
		if out.Result = p.resultFn(out.Result, res, out.Fired-1); rec != nil {
			rec.merge(out.Fired - 1)
		}
	default:
		out.Ambiguous = out.Ambiguous || *haveResult
		out.Result, *haveResult = res, true
	}
	return false
}

// addExcess adds a raise's firings beyond one to the event's fired excess,
// if the caller keeps one and there are any (Env.FiredExcess): at most one
// add per raise, and none for a raise that fires exactly one handler.
func (env *Env) addExcess(idx int, fired int64) {
	if fired != 1 && env.FiredExcess != nil {
		env.FiredExcess.AddAt(idx, fired-1)
	}
}

// fires is the number of handler firings the outcome counts: the handlers
// that ran plus a default-handler firing.
func (o Outcome) fires() int64 {
	if o.UsedDefault {
		return int64(o.Fired) + 1
	}
	return int64(o.Fired)
}
