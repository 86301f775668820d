package codegen

import (
	"runtime/debug"

	"spin/internal/vtime"
)

// Protected execution: the recovery barriers compiled into a plan when
// Options.Protect is set. Each barrier is an open-coded defer of a method
// call (not a closure), so the no-fault path through a protected plan stays
// allocation-free — the acceptance property TestFaultPolicyOnZeroAlloc
// enforces. The stack capture allocates only on the panic path, where an
// unwind has already blown the cost budget.
//
// The stencil runs a whole frame behind one barrier (walkBehindBarrier).
// The general executor — the metered, trace-sampled, async/ephemeral/filter
// reference — keeps one per call (callProtected, guardProtected).

// walkPhase says what a protected frame's walk is inside. Only a guard or a
// handler is the extension's code: a panic in any other phase — a result
// handler, the walk itself — is not recovered and reaches the raiser with
// its stack intact.
type walkPhase uint8

const (
	inWalk    walkPhase = iota // between calls
	walkDone                   // the frame is complete
	inGuard                    // an out-of-line guard of step pos
	inHandler                  // the body of step pos
	inDefault                  // the default handler's body (pos is its record)
)

// walkState is one protected frame's walk (see flatFrame), kept in the
// frame entry's stack frame so that it survives the unwind of the walk's.
type walkState struct {
	out        Outcome
	haveResult bool
	phase      walkPhase
	inRun      bool
	ri, stop   int
	pos        int // the step in a call; after a capture, the step to resume at
}

// walkBehindBarrier runs the frame's walk from ws on under the frame's one
// recover barrier. It returns with the walk done or, after a captured
// panic, set to resume behind the step that panicked, guard-index chain
// (the segment in ws) included.
func walkBehindBarrier[R, G shapeAxis](p *Plan, args []any, idx int, ws *walkState) {
	defer p.capture(idx, ws)
	flatFrame[R, G, on](p, args, idx, ws)
}

// capture is the stencil's deferred barrier. A panicking guard evaluates
// false: the step is skipped. A panicking handler counts as fired with no
// result: the fold is skipped. The hook may re-panic (see captureGuard).
func (p *Plan) capture(idx int, ws *walkState) {
	phase := ws.phase
	if phase < inGuard {
		return
	}
	v := recover()
	if v == nil {
		return
	}
	s := &p.flat[ws.pos]
	ws.pos, ws.phase = ws.pos+1, inWalk
	switch phase {
	case inGuard:
		p.protect.GuardPanic(s.tag, v, debug.Stack())
		return
	case inDefault:
		ws.out.UsedDefault, ws.phase = true, walkDone
	default:
		ws.out.Fired++
	}
	p.protect.HandlerPanic(s.tag, v, debug.Stack())
	countFire(s.fire, idx)
}

// callProtected is the general executor's barrier: it runs a sync step (a
// handler, a filter, the direct bypass or the default handler) behind the
// fault hook. ok is false when the handler panicked: the step counts as
// fired with no result, mirroring a terminated EPHEMERAL invocation.
func (p *Plan) callProtected(cpu *vtime.CPU, st *step, args []any) (res any, ok bool) {
	defer p.captureHandler(st.b.Tag, &ok)
	if cpu != nil {
		start := cpu.Now()
		res = runBody(st.b, st.inline, args)
		p.protect.SyncCost(st.b.Tag, cpu.Now().Sub(start))
	} else {
		res = runBody(st.b, st.inline, args)
	}
	ok = true
	return
}

// captureHandler is the deferred recovery barrier for handler invocations.
func (p *Plan) captureHandler(tag any, ok *bool) {
	if *ok {
		return
	}
	if v := recover(); v != nil {
		p.protect.HandlerPanic(tag, v, debug.Stack())
	}
}

// guardProtected evaluates one out-of-line guard behind the fault hook; a
// panicking guard evaluates false.
func (p *Plan) guardProtected(g *Guard, tag any, args []any) (pass bool) {
	defer p.captureGuard(tag, &pass)
	return g.Fn(g.Closure, args)
}

// captureGuard is the deferred recovery barrier for guard evaluations. The
// hook may re-panic (the dispatcher's purity monitor does, to surface
// ErrGuardMutatedArgs at the raise point); the re-panic propagates past the
// recovered frame.
func (p *Plan) captureGuard(tag any, pass *bool) {
	if v := recover(); v != nil {
		*pass = false
		p.protect.GuardPanic(tag, v, debug.Stack())
	}
}
