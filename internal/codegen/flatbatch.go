package codegen

import (
	"sync/atomic"

	"spin/internal/trace"
	"spin/internal/vtime"
)

// Batched executor entry point — the vectorized ingress tier. A loop of N
// single raises pays the per-raise fixed costs N times: the plan load, the
// stripe shard hash, the executor selection, the statistics adds.
// ExecuteBatch's two fast loops pay them once per batch and run each frame
// through the same body a single raise runs. The frames arrive flat,
// row-major in one slice, so a batch needs no per-frame header. Only callers
// that measure a gain use it (benchmark/raise.go's batch64,
// TestBenchSmokeBatch): the netstack and httpd raise per frame.
//
// Loop equivalence under churn: a loop of single raises loads the plan per
// raise, so an uninstall (or quarantine, or trace toggle) between frames is
// visible to the next frame. Every frame loop below compares the live plan
// pointer against its own before each frame but the first and returns
// early when it moved; the dispatcher continues the rest on the new plan.

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

// ExecuteBatch dispatches n frames against this plan, laid out row-major in
// flat: frame i is flat[i*width : (i+1)*width], width being the event's
// arity. live, when non-nil, is the event's published-plan cell: the batch
// stops before the first frame that would run on a stale plan. Returns the
// folded outcome and the number of frames processed — fewer than n only
// when the plan was superseded mid-batch, and at least one of a non-empty
// batch. stripeIdx is the caller's hoisted stripe shard index for the
// batch's excess add (Env.FiredExcess): the caller counts the n frames, and
// takes back those past the m processed. A filter rewrites its frame in
// flat in place, and an async or ephemeral step may read it after the call
// returns, as with Execute's args: a caller whose raiser keeps flat passes
// a copy, never reused, when HasFilter or RetainsArgs reports true.
//
// An unmetered batch of an untraced plan runs one of the two fast loops:
// the direct bypass's (executeDirectBatch) or the plain stencil's. Every
// other batch is a loop of single raises (Execute), so its charges,
// sampling draws and spans are a loop's by construction.
func (p *Plan) ExecuteBatch(env *Env, flat []any, width, n, stripeIdx int, live *atomic.Pointer[Plan]) (BatchOutcome, int) {
	if env.CPU == nil && p.prog == nil {
		switch {
		case p.direct == nil:
			return p.executeFrameBatch(env, flat, width, n, stripeIdx, live)
		case p.protect == nil:
			return p.executeDirectBatch(flat, width, n, live)
		}
	}
	var out BatchOutcome
	for i := 0; i < n; i++ {
		if i > 0 && live != nil && live.Load() != p {
			return out, i
		}
		out.Add(p.Execute(env, frameAt(flat, width, i), stripeIdx))
	}
	return out, n
}

// frameAt is frame i of a row-major batch, capped so that a handler
// appending to its arguments cannot reach frame i+1.
func frameAt(flat []any, width, i int) []any {
	at := i * width
	return flat[at : at+width : at+width]
}

// executeFrameBatch is the plain stencil's fast loop: the frame loop around
// Plan.frame, with one excess add at the end, of total − m for m frames.
func (p *Plan) executeFrameBatch(env *Env, flat []any, width, n, idx int, live *atomic.Pointer[Plan]) (BatchOutcome, int) {
	var out BatchOutcome
	var total int64
	done := n
	for i := 0; i < n; i++ {
		if i > 0 && live != nil && live.Load() != p {
			done = i
			break
		}
		o, fired := p.frame(p, frameAt(flat, width, i), nil)
		total += fired
		out.Add(o)
	}
	env.addExcess(idx, total, int64(done))
	return out, done
}

// executeDirect is the single-binding bypass's observed and protected entry:
// one handler call, charged as the direct procedure call it replaces, behind
// the one per-call barrier when the plan is protected, with its span when
// rec samples it. A panicking protected handler counts as fired, so the
// bypass always fires exactly one handler and adds no excess.
func (p *Plan) executeDirect(env *Env, args []any, rec *recorder) Outcome {
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
	if rec != nil {
		rec.handler(0, trace.ModeDirect, completed)
		rec.end(out)
	}
	return out
}

// executeDirectBatch is the batch tier of the single-binding bypass: the
// frame loop wrapped directly around the handler call. Each frame fires one
// handler, so it adds no excess.
func (p *Plan) executeDirectBatch(flat []any, width, n int, live *atomic.Pointer[Plan]) (BatchOutcome, int) {
	b, inline := p.direct.b, p.direct.inline
	var out BatchOutcome
	done := n
	for i := 0; i < n; i++ {
		if i > 0 && live != nil && live.Load() != p {
			done = i
			break
		}
		out.Result = runBody(b, inline, frameAt(flat, width, i))
	}
	out.Fired = int64(done)
	return out, done
}
