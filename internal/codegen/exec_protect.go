package codegen

import (
	"runtime/debug"

	"spin/internal/trace"
	"spin/internal/vtime"
)

// Protected execution: the recovery barriers compiled into a plan when
// Options.Protect is set — one per frame for the stencil, plain or observed
// (walkBehindBarrier), one per call for the direct bypass (callProtected).
// Each is an open-coded defer of a method call, not a closure, so the
// no-fault path stays allocation-free (TestFaultPolicyOnZeroAlloc); only
// the panic path's stack capture allocates.

// walkPhase says what a protected frame's walk is inside. Only a guard or a
// handler is the extension's code: a panic in any other phase — a result
// handler, an Env supervisor, the walk itself — is not recovered and
// reaches the raiser with its stack intact.
type walkPhase uint8

const (
	walkEntry walkPhase = iota // the frame is not behind its barrier yet
	inWalk                     // between calls
	walkDone                   // the frame is complete
	inGuard                    // out-of-line guard number guard of step pos
	inHandler                  // the body of step pos
	inDefault                  // the default handler's body (pos is past the steps)
)

// walkState is one frame's walk (see flatFrame): the observed walk's Env
// and recorder, and, behind a barrier, the walk itself, kept in the frame
// entry's stack frame so that it survives the unwind of the walk's. The
// recorder is held by value: out.Result reaches the result handler, and
// escape analysis does not tell the fields apart.
type walkState struct {
	env        *Env
	rec        recorder // rec.prog is nil when the raise is unsampled
	out        Outcome
	filtered   int64 // filter firings, which the Outcome does not count
	haveResult bool
	phase      walkPhase
	inRun      bool
	ri, bi     int
	stop       int
	pos        int // the step in a call; after a capture, the step to resume at
	guard      int
}

// recorder returns the sampled raise's recorder, or nil.
func (ws *walkState) recorder() *recorder {
	if ws == nil || ws.rec.prog == nil {
		return nil
	}
	return &ws.rec
}

// meter returns what runStep charges and records through: the raise's CPU
// and recorder, both nil on a plain walk, whose ws (if any) has no Env.
func (ws *walkState) meter() (*vtime.CPU, *recorder) {
	if ws == nil || ws.env == nil {
		return nil, nil
	}
	return ws.env.CPU, ws.recorder()
}

// walkBehindBarrier runs the frame's walk from ws on under the frame's one
// recover barrier. It returns with the walk done or, after a captured
// panic, set to resume behind the step that panicked, guard-index chain
// and next boundary step (the segment in ws) included.
func walkBehindBarrier[R, G, O shapeAxis](p *Plan, args []any, ws *walkState) {
	defer p.capture(ws)
	flatFrame[R, G, on, O](p, args, ws)
}

// capture is the stencil's deferred barrier. A panicking guard evaluates
// false: the step is skipped; or, when the hook returns an error, the walk
// ends with the raise rejected: Fired -1 and the error as the result, and
// one filter firing, so that the frame's firings come to zero and the
// caller's excess add takes back the one firing its raised count stands
// for. A panicking handler counts as fired with no result: the fold is
// skipped. The hook may re-panic (the dispatcher's does when it enforces
// no policy); the re-panic propagates past the recovered frame. A sampled
// raise records the failed guard's or the terminated handler's span.
func (p *Plan) capture(ws *walkState) {
	phase := ws.phase
	if phase < inGuard {
		return
	}
	v := recover()
	if v == nil {
		return
	}
	pos := ws.pos
	ws.pos, ws.phase = pos+1, inWalk
	rec := ws.recorder()
	if phase == inGuard {
		err := p.protect.GuardPanic(p.flat[pos].tag, v, debug.Stack())
		if rec != nil {
			rec.guard(pos, ws.guard, false, false)
		}
		if err != nil {
			ws.out, ws.filtered, ws.phase = Outcome{Fired: -1, Result: err}, 1, walkDone
		}
		return
	}
	mode := trace.ModeDefault
	var tag any
	switch {
	case phase == inDefault:
		tag = p.def.b.Tag
		pos, ws.out.UsedDefault, ws.phase = -1, true, walkDone
	case p.steps[pos].mode == trace.ModeFilter:
		tag, mode = p.flat[pos].tag, trace.ModeFilter
		ws.filtered++
	default:
		tag, mode = p.flat[pos].tag, p.steps[pos].mode
		ws.out.Fired++
	}
	p.protect.HandlerPanic(tag, v, debug.Stack())
	if rec != nil {
		rec.handler(pos, mode, false)
	}
}

// callProtected runs the direct bypass's handler behind the fault hook —
// the one per-call barrier. ok is false when the handler panicked: it
// counts as fired with no result.
func (p *Plan) callProtected(args []any) (res any, ok bool) {
	st := p.direct
	defer p.captureHandler(st.b.Tag, &ok)
	res = runBody(st.b, st.inline, args)
	ok = true
	return
}

// captureHandler is callProtected's deferred recovery barrier.
func (p *Plan) captureHandler(tag any, ok *bool) {
	if *ok {
		return
	}
	if v := recover(); v != nil {
		p.protect.HandlerPanic(tag, v, debug.Stack())
	}
}
