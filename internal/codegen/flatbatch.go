package codegen

import (
	"sync/atomic"

	"spin/internal/trace"
	"spin/internal/vtime"
)

// Batched executor entry point — the vectorized ingress tier. A producer
// delivering N frames (a packet train, an accept burst) would pay the
// per-raise fixed costs N times: the plan load, the stripe shard hash, the
// sampling draw, the executor selection, the fired-total flush.
// ExecuteBatch pays them once per batch and runs each frame through the
// same per-frame stencil (flatFrame) a single raise runs; per-binding fire
// counts keep one striped add per firing.
//
// Loop equivalence under churn: a loop of single raises loads the plan per
// raise, so an uninstall (or quarantine, or trace toggle) between frames is
// visible to the next frame. Every frame loop below compares the live plan
// pointer against its own before each frame but the first and returns
// early when it moved; the dispatcher continues the rest on the new plan.

// ArgFrame is one raise's argument vector within a batch.
type ArgFrame []any

// BatchOutcome folds per-frame Outcomes over one executor call.
type BatchOutcome struct {
	// Fired counts handler invocations across all frames, excluding
	// default-handler firings.
	Fired int64
	// Defaulted counts frames handled by the default handler.
	Defaulted int
	// NoHandler counts frames on which no handler fired and no default was
	// installed (the frames a loop of raises would report ErrNoHandler).
	NoHandler int
	// Ambiguous counts frames that produced multiple unmerged results.
	Ambiguous int
	// Result is the last dispatched frame's merged result.
	Result any
}

// Add folds one frame's outcome into the batch outcome.
func (b *BatchOutcome) Add(o Outcome) {
	b.Fired += int64(o.Fired)
	switch {
	case o.UsedDefault:
		b.Defaulted++
	case o.Fired == 0:
		b.NoHandler++
	}
	if o.Ambiguous {
		b.Ambiguous++
	}
	b.Result = o.Result
}

// ExecuteBatch dispatches a batch of frames against this plan. live, when
// non-nil, is the event's published-plan cell: the batch stops before the
// first frame that would run on a stale plan. Returns the folded outcome
// and the number of frames processed — fewer than len(frames) only when the
// plan was superseded mid-batch, and at least one of a non-empty batch.
// stripeIdx is the caller's hoisted stripe shard index.
//
// Metered and sampled batches, and plans with no plain stencil, run the
// observed walk (or the direct entry) frame by frame, so the virtual-time
// charges and spans are those of a loop of single raises.
func (p *Plan) ExecuteBatch(env *Env, frames []ArgFrame, stripeIdx int, live *atomic.Pointer[Plan]) (BatchOutcome, int) {
	var out BatchOutcome
	if len(frames) == 0 {
		return out, 0
	}
	// One sampling decision covers the batch: an unsampled draw runs it
	// untraced, the amortization this tier exists for.
	var rec recorder
	var r *recorder
	if p.prog != nil {
		r = p.sample(env.CPU, frames[0], &rec)
	}
	if r == nil && env.CPU == nil {
		if p.direct != nil && p.protect == nil {
			return p.executeDirectBatch(env, frames, stripeIdx, live)
		}
		if p.frame != nil {
			var total int64 // event-level fired count, flushed once per batch
			done := len(frames)
			for i := range frames {
				if i > 0 && live != nil && live.Load() != p {
					done = i
					break
				}
				o := p.frame(p, frames[i], stripeIdx, nil)
				total += o.fires()
				out.Add(o)
			}
			env.addFired(stripeIdx, total)
			return out, done
		}
	}
	// The observed frame loop. A sampled batch records its first frame
	// under the batch's draw and redraws for every later one, so a tracer
	// sees one span group per frame, as for a loop of single raises.
	redraw := r != nil
	for i := range frames {
		if i > 0 {
			if live != nil && live.Load() != p {
				return out, i
			}
			if redraw {
				r = p.sample(env.CPU, frames[i], &rec)
			}
		}
		if p.direct != nil {
			out.Add(p.executeDirect(env, frames[i], stripeIdx, r))
		} else {
			out.Add(p.observe(env, frames[i], stripeIdx, r))
		}
	}
	return out, len(frames)
}

// executeDirect is the single-binding bypass's entry: one handler call,
// charged as the direct procedure call it replaces, behind the one per-call
// barrier when the plan is protected, with its span when rec samples it.
func (p *Plan) executeDirect(env *Env, args []any, idx int, rec *recorder) Outcome {
	st, cpu := p.direct, env.CPU
	rec.open()
	cpu.Charge(vtime.CallDirect)
	cpu.ChargeN(vtime.CallDirectArg, p.info.Arity)
	out, completed := Outcome{Fired: 1}, true
	if p.protect != nil {
		out.Result, completed = p.callProtected(cpu, args)
	} else {
		out.Result = runBody(st.b, st.inline, args)
	}
	countFire(st.b.FireCount, idx)
	env.addFired(idx, 1)
	if rec != nil {
		rec.handler(0, trace.ModeDirect, completed)
		rec.end(out)
	}
	return out
}

// executeDirectBatch is the batch tier of the single-binding bypass: the
// frame loop wrapped directly around the handler call, with one add to the
// binding's fire counter per frame and one event-total flush at the end.
func (p *Plan) executeDirectBatch(env *Env, frames []ArgFrame, idx int, live *atomic.Pointer[Plan]) (BatchOutcome, int) {
	b, inline := p.direct.b, p.direct.inline
	var out BatchOutcome
	done := len(frames)
	for i := range frames {
		if i > 0 && live != nil && live.Load() != p {
			done = i
			break
		}
		out.Result = runBody(b, inline, frames[i])
		countFire(b.FireCount, idx)
	}
	out.Fired = int64(done)
	env.addFired(idx, out.Fired)
	return out, done
}
