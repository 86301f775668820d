package codegen

import "sync/atomic"

// Batched executor entry point — the vectorized ingress tier. A single
// raise already runs straight-line code, but a producer delivering N frames
// (a packet train, an accept burst) still pays the per-raise fixed costs N
// times: the plan load, the stripe shard hash, the trace sampling decision,
// the executor selection, the fired-total flush. ExecuteBatch pays those
// once per batch and runs each frame through the same per-frame stencil
// (flatFrame) a single raise runs:
//
//   - one plan load, sampling draw and executor selection serve the batch;
//   - the caller's hoisted stripe shard index serves every striped counter
//     every frame touches;
//   - the event-level fired total accumulates in a register across the
//     batch and is flushed with one striped add at the end;
//   - per-binding fire counts keep one striped add per firing (identical
//     totals to the loop-of-raises protocol).
//
// Loop equivalence under churn: a loop of single raises loads the plan
// fresh per raise, so an uninstall (or quarantine, or trace toggle)
// between frames is visible to the next frame. Every frame loop below
// preserves exactly that: before every frame except the first it compares
// the live plan pointer against the plan it is running and returns early
// when it moved, reporting how many frames it processed; the dispatcher
// reloads and continues the remainder on the new plan. One atomic load and
// compare per frame is all the staleness check costs — the amortized
// savings (plan load is a load+branch here versus a load, shard hash,
// sampling draw, and flush per raise there) remain.

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

// ExecuteBatch dispatches a batch of frames against this plan, drawing the
// per-raise fixed costs once: one trace sampling decision, one executor
// selection, one fired-total flush. live, when non-nil, is the event's
// published-plan cell: the batch stops before the first frame that would
// run on a stale plan, so a churning batch remains observably identical to
// a loop of single raises. Returns the folded outcome and the number of
// frames processed — fewer than len(frames) only when live reports the
// plan was superseded mid-batch, in which case the caller reloads and
// continues. Always processes at least one frame of a non-empty batch.
// stripeIdx is the caller's hoisted stripe shard index, shared by every
// striped counter the batch touches.
//
// Metered plans (env.CPU != nil) take the general executor per frame so
// the virtual-time charge sequence stays byte-identical to a loop of
// single raises.
func (p *Plan) ExecuteBatch(env *Env, frames []ArgFrame, stripeIdx int, live *atomic.Pointer[Plan]) (BatchOutcome, int) {
	var out BatchOutcome
	if len(frames) == 0 {
		return out, 0
	}
	// Tracing compiled in: one sampling decision covers the batch. An
	// unsampled draw runs the whole batch untraced — the amortization this
	// tier exists for.
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
	// The general executor, frame by frame. A sampled batch records its
	// first frame under the raise id the batch's draw produced; every
	// subsequent frame draws its own decision (and id), so a tracer
	// recording every raise sees one span group per frame, exactly as a loop
	// of single raises would produce.
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
		out.Add(p.general(env, frames[i], stripeIdx, r))
	}
	return out, len(frames)
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
