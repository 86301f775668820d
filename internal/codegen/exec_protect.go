package codegen

import (
	"runtime/debug"

	"spin/internal/vtime"
)

// Protected execution helpers: the recovery barriers compiled into a plan
// when Options.Protect is set. Each barrier is an open-coded defer of a
// method call (not a closure), so the no-fault path through a protected
// plan stays allocation-free — the acceptance property
// TestFaultPolicyOnZeroAlloc enforces. The stack capture allocates only on
// the panic path, where an unwind has already blown the cost budget.

// callProtected is the one handler barrier: it runs a synchronous step (a
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
