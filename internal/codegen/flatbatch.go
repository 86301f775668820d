package codegen

import (
	"sync/atomic"

	"spin/internal/trace"
	"spin/internal/vtime"
)

// The one batch loop: a train of frames through the single-binding bypass,
// the frame loop wrapped directly around the handler call. A loop of N
// single raises pays the plan load, the stripe hash and the statistics add
// N times; this loop pays them once per train. It is the only batch path
// with traffic (benchmark/raise.go's batch64, TestBenchSmokeBatch); every
// other batch is the dispatcher's loop of single raises.

// Batchable reports whether ExecuteBatch runs the plan: an unprotected,
// untraced direct bypass.
func (p *Plan) Batchable() bool {
	return p.direct != nil && p.protect == nil && p.prog == nil
}

// ExecuteBatch runs n frames of a Batchable plan, laid out row-major in
// flat: frame i is flat[i*width : (i+1)*width], width being the event's
// arity. live, when non-nil, is the event's published-plan cell: the loop
// stops before the first frame that would run on a stale plan, so an
// uninstall between frames is visible to the next frame as it is to the
// next raise of a loop. Returns the last frame's result and the number of
// frames run — fewer than n only when the plan was superseded mid-batch,
// and at least one of a non-empty batch. Each frame fires exactly one
// handler, so the loop adds no fired excess.
func (p *Plan) ExecuteBatch(flat []any, width, n int, live *atomic.Pointer[Plan]) (result any, done int) {
	b, inline := p.direct.b, p.direct.inline
	for ; done < n; done++ {
		if done > 0 && live != nil && live.Load() != p {
			break
		}
		// Capped, so a handler appending to its arguments cannot reach the
		// next frame.
		at := done * width
		result = runBody(b, inline, flat[at:at+width:at+width])
	}
	return result, done
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
		out.Result, completed = p.callProtected(args)
	} else {
		out.Result = runBody(st.b, st.inline, args)
	}
	if rec != nil {
		rec.handler(0, trace.ModeDirect, completed)
		rec.end(out)
	}
	return out
}
