package codegen

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"spin/internal/admit"
	"spin/internal/stripe"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// GuardFn is the out-of-line guard calling convention: closure (nil when
// none was supplied at installation) plus the raise arguments.
type GuardFn func(closure any, args []any) bool

// HandlerFn is the out-of-line handler calling convention. Void handlers
// return nil.
type HandlerFn func(closure any, args []any) any

// CtxHandlerFn is the cancellation-aware handler calling convention: the
// context is cancelled when a watchdog deadline expires, so a cooperative
// EPHEMERAL or asynchronous handler can stop early instead of running
// abandoned (§2.6 "Runaway handlers"). Synchronous invocations receive
// context.Background().
type CtxHandlerFn func(ctx context.Context, closure any, args []any) any

// FaultHook receives structured fault captures from protected plan
// execution. It is implemented by the dispatcher's fault controller; the
// generator only calls it from plans compiled with Options.Protect.
type FaultHook interface {
	// HandlerPanic reports a recovered panic in a handler body; the
	// handler counts as fired with no result.
	HandlerPanic(tag any, val any, stack []byte)
	// GuardPanic reports a recovered panic in an out-of-line guard; the
	// guard counts as failed. A non-nil error rejects the raise instead:
	// the walk stops at the guard, the raise counts no firing, and its
	// Outcome carries the error (Outcome.Rejection).
	GuardPanic(tag any, val any, stack []byte) error
}

// ResultFn folds handler results: it is called separately for each result
// produced during a raise, receiving the accumulator (nil initially), the
// new result, and the zero-based index of the result (paper §2.3 "Handling
// results").
type ResultFn func(acc any, result any, index int) any

// Guard pairs an evaluable guard with its installation closure. A non-nil
// Pred marks the guard as inlinable: the generator evaluates it inside the
// dispatch routine. Otherwise Fn is called indirectly.
type Guard struct {
	Fn      GuardFn
	Closure any
	Pred    *Pred
}

// Binding is the code generator's view of one installed handler: its guard
// list (installer guards followed by authorizer-imposed guards), the
// handler itself, and the execution properties that shape the generated
// code. It is immutable from its first Compile on.
type Binding struct {
	Guards  []Guard
	Fn      HandlerFn
	Closure any
	// CtxFn is the cancellation-aware implementation, used instead of Fn
	// when non-nil. Synchronous calls pass context.Background(); the
	// ephemeral and async supervisors pass their watchdog context.
	CtxFn CtxHandlerFn
	// Inline, when non-nil, lets the generator inline the handler body.
	Inline *Body
	// Async handlers execute on a separate thread of control via
	// Options.Async; their results are not returned to the raiser.
	Async bool
	// Ephemeral handlers run under Options.RunEphemeral, which may
	// terminate them (paper §2.6 "Runaway handlers").
	Ephemeral bool
	// Filter marks a handler that takes parameters by reference and may
	// rewrite them for subsequent handlers and guards.
	Filter bool
	// Tag is an opaque back-pointer for the dispatcher (statistics,
	// termination reporting). The generator never inspects it.
	Tag any
	// Name is the handler's qualified procedure name, used only to label
	// trace spans; the generated code never inspects it.
	Name string
	// memo is the binding's last lowering (see lowered).
	memo atomic.Pointer[lowered]
}

// lowered is a binding's compiled form: the step Compile copies into a
// plan and its flattened twin with the guard leaves behind the embedded
// first. The binding memoises it, so a plan lowers only the bindings behind
// the prefix it keeps of its predecessor, and those from the memo.
type lowered struct {
	live bool // false: peephole proved the binding can never fire
	st   step
	flat flatStep   // p0/p1 are set per plan
	rest []flatPred // the leaves after flat.g0
}

// EventInfo carries the event attributes the generator specializes on.
type EventInfo struct {
	Name      string
	Arity     int
	HasResult bool
}

// Options are the dispatcher state compiled into a plan: tracing, fault
// capture, admission and the supervisors of async and ephemeral steps.
// They select no optimization: the generator chooses its paths from the
// bindings — the bypass for one unguarded synchronous binding, the
// peephole always, the guard index wherever a run of equality guards is
// long enough (tree.go).
type Options struct {
	// Trace, when non-nil, compiles trace recording steps into the plan:
	// the generated routine registers its step layout with the tracer and
	// sampled raises run the observed walk with a span recorder. A nil
	// Trace compiles a plan that never draws a sampling decision, so a
	// disabled tracer costs nothing on the hot path (the zero-cost-off
	// property TestTracingOffZeroAlloc enforces).
	Trace *trace.Tracer
	// Protect, when non-nil, compiles fault capture into the plan: a panic
	// in a handler body or an out-of-line guard goes to the hook instead of
	// the raiser. A panicking handler counts as fired with no result; a
	// panicking guard counts as failed, or rejects the raise when the hook
	// says so (FaultHook.GuardPanic).
	// Plans compiled without it carry no recovery code at all (DESIGN.md
	// decision 12).
	Protect FaultHook
	// Admit, when non-nil, compiles the event's admission queue into the
	// plan: every asynchronous handler invocation hands it to Async, which
	// submits the invocation to the bounded queue instead of spawning it,
	// and asynchronous raises of the event pass through the same queue. A
	// nil Admit hands Async a nil queue: the unqueued spawn path (DESIGN.md
	// decision 13).
	Admit *admit.Queue
	// Async runs one asynchronous handler invocation on a separate thread
	// of control: submitted to q, the plan's Admit queue (and possibly
	// shed), or spawned directly when q is nil. arity is the number of
	// arguments copied to the new thread (it determines the spawn cost);
	// invoke's context carries the supervisor's cancellation. Required if
	// any binding is Async.
	Async func(q *admit.Queue, tag any, arity int, invoke func(context.Context) any)
	// RunEphemeral runs invoke under termination supervision, returning
	// its result and whether it ran to completion; the context is
	// cancelled if the watchdog abandons the invocation. Required if any
	// binding is Ephemeral.
	RunEphemeral func(tag any, invoke func(context.Context) any) (any, bool)
}

// step is one unrolled dispatch step.
type step struct {
	guards []Guard
	b      *Binding
	inline bool // binding executes fully inline
	// mode is the binding's execution mode (bindingMode), which both
	// selects how the step's handler is invoked and labels its trace span.
	mode trace.Mode
	// idx is the step's index in the live plan, assigned at compile time
	// (-1 for the default handler), for trace-span attribution.
	idx int
}

// boundary reports whether the step is a filter, async or ephemeral one,
// which both walks run between segments (flat.go).
func (st *step) boundary() bool { return st.mode != trace.ModeSync }

// Plan is an immutable compiled dispatch routine. The dispatcher publishes
// a new plan with a single atomic pointer store on every installation or
// removal, so raises in flight keep executing the old plan — the paper's
// "handler lists are updated atomically with respect to event dispatch by
// using a single memory access".
type Plan struct {
	info  EventInfo
	steps []step
	// runs is the guard index (tree.go): the runs of equality-guarded steps
	// both walks jump through.
	runs      []guardRun
	direct    *step // non-nil: single-binding bypass, dispatcher skipped
	resultFn  ResultFn
	def       *step // default handler, nil when none installed
	allInline bool
	// bounds are the positions of the boundary steps — filter, async and
	// ephemeral — in plan order: both walks run each between the stretches
	// of their step loop (flat.go).
	bounds []int
	// retaining counts the live bindings (asynchronous or ephemeral) that
	// may hold the raise argument slice past the raise, so callers must
	// not recycle it. Dispatcher fast paths consult RetainsArgs before
	// reusing pooled argument buffers.
	retaining int
	// outOfLine counts the steps that do not execute fully inline.
	outOfLine int
	// prog is the plan's trace recording handle, non-nil only when the
	// plan was compiled with Options.Trace. Untraced plans pay a single
	// nil check per raise and nothing else. meta is the step layout prog
	// registered (stepMeta).
	prog *trace.Program
	meta []trace.StepMeta
	// protect is the fault hook compiled into the plan (Options.Protect);
	// nil plans execute with no recovery barriers at all.
	protect FaultHook
	// admitQ is the admission queue compiled into the plan
	// (Options.Admit); nil plans spawn asynchronous work unqueued.
	admitQ *admit.Queue
	// Ahead-of-time specialization (flat.go): the flattened step array, the
	// pool of guard leaves behind each step's embedded first, the count of
	// all leaves, and the plain stencil instantiation selected at compile
	// time (nil only on a direct plan).
	flat      []flatStep
	flatPreds []flatPred
	leaves    int
	frame     frameFn
	// chain is the storage steps, flat and flatPreds share with the plans
	// compiled before and after this one (nil while the plan is empty).
	chain *chain
	// Off the hot path: the count of filter steps (HasFilter), and the
	// step supervisors (Options.Async, Options.RunEphemeral).
	filters   int
	async     func(q *admit.Queue, tag any, arity int, invoke func(context.Context) any)
	ephemeral func(tag any, invoke func(context.Context) any) (any, bool)
}

// Env is what one raise brings to the generated routine from the
// dispatcher: a CPU meter (nil when unmetered; a metered raise runs the
// observed walk) and the event's fired excess. Everything a step needs to
// run — the async and ephemeral supervisors included — is compiled into
// the plan (Options).
type Env struct {
	CPU *vtime.CPU
	// FiredExcess, if non-nil, receives a raise's firings beyond one —
	// fires − 1, filters and a default-handler firing included — and
	// nothing when that is zero, through the caller's hoisted stripe shard
	// index. Every plan execution is preceded by exactly one add per frame
	// to the caller's raised total (Event.raiseOut counts a raise,
	// Event.executeBatch a bypass batch's frames), so raised + excess is
	// the fired total, and a raise that fires exactly one handler — the
	// direct bypass always, and so every frame of Plan.ExecuteBatch —
	// writes nothing here. A reader that sums the two while raises run may
	// briefly count one firing high per raise in flight that fires nothing.
	FiredExcess *stripe.Counter
}

// Outcome reports what a raise did. It keeps to four fields: the compiler
// keeps a struct of at most four as SSA values, and a fifth makes every
// Outcome a stack temporary on the raise path (TestOutcomeFitsRegisters).
type Outcome struct {
	// Result is the merged result (meaningful only when the event has a
	// result and Fired > 0 or UsedDefault), or the rejection's error when
	// Fired is -1.
	Result any
	// Fired counts handlers that ran, excluding the default handler; -1
	// marks a raise the fault hook rejected (Rejection).
	Fired int
	// Ambiguous is set when multiple handlers produced results but no
	// result handler was installed to merge them; Result then holds the
	// last result, and the dispatcher surfaces an error.
	Ambiguous bool
	// UsedDefault is set when no handler fired and the default handler
	// supplied the result.
	UsedDefault bool
}

// Rejection returns the error the fault hook rejected the raise with, or
// nil when the plan ran it.
func (o Outcome) Rejection() error {
	if o.Fired >= 0 {
		return nil
	}
	err, _ := o.Result.(error)
	return err
}

// Compile generates the dispatch routine for an event. prev is the event's
// current plan, or nil to compile from scratch. The new plan keeps prev's
// first keep steps (0 when prev is nil), sharing their storage and the
// guard index over them (chain.go), and lowers bindings — the handler list
// behind those steps — from their memos: an install appended behind the
// residents keeps every step and lowers one binding, not n. The caller
// knows which steps its change left alone (Event.recompile). The returned
// plan is immutable; the dispatcher swaps it in atomically.
func Compile(prev *Plan, keep int, info EventInfo, bindings []*Binding, resultFn ResultFn, defaultB *Binding, opts Options) *Plan {
	p := &Plan{info: info, resultFn: resultFn, protect: opts.Protect,
		admitQ: opts.Admit, async: opts.Async, ephemeral: opts.RunEphemeral}
	if defaultB != nil {
		// The default handler runs as a step outside the step list; -1 is
		// the step index its trace span carries.
		p.def = &step{b: defaultB, idx: -1, inline: defaultB.Inline != nil}
	}
	if prev == nil {
		keep = 0
	}
	var buf [4]*lowered // the usual recompile appends one binding or none
	suffix := buf[:0]
	for _, b := range bindings {
		if lo := b.lower(); lo.live { // a dead binding gets no step
			suffix = append(suffix, lo)
		}
	}
	inPlace := p.extend(prev, keep, suffix)
	p.allInline = p.outOfLine == 0 && len(p.steps) > 0
	// Single-binding bypass: one live synchronous unguarded binding
	// dispatches as a direct procedure call (Figure 1's "an event with only
	// an intrinsic handler is identical to a procedure call").
	if len(p.steps) == 1 && defaultB == nil && resultFn == nil {
		if st := &p.steps[0]; len(st.guards) == 0 && !st.boundary() {
			p.direct = st
		}
	}
	p.selectStencil()
	p.runs = buildGuardIndex(p.steps, prev, keep, inPlace)
	if opts.Trace != nil {
		// Register the plan's step layout with the tracer: spans carry only
		// (program, step) indices, resolved to names at export time — also
		// for superseded plans — so recording never allocates.
		p.meta = p.stepMeta(prev, keep, inPlace)
		meta := trace.EventMeta{Event: info.Name, Steps: p.meta}
		if defaultB != nil {
			meta.Default = defaultB.Name
		}
		p.prog = opts.Trace.Program(meta)
	}
	if prev != nil && prev.prog != nil {
		// The plan supersedes prev: its program's names stay registered
		// while the tracer's ring holds its spans.
		prev.prog.Retire()
	}
	return p
}

// stepMeta is a traced plan's step layout as its trace program registers
// it, shared along a line of plans the way the steps are (chain.go): prev's
// first keep entries, with this plan's appended in place when its chain CAS
// claimed their steps (inPlace) and behind a copy otherwise. So an append
// behind n residents costs O(1) traced too, and the programs of earlier
// plans keep their shorter slice headers over entries never written again.
// A prev compiled untraced has no layout to share: it is built whole.
func (p *Plan) stepMeta(prev *Plan, keep int, inPlace bool) []trace.StepMeta {
	var meta []trace.StepMeta
	switch n := len(p.steps); {
	case prev == nil || len(prev.meta) < keep:
		keep = 0
		meta = make([]trace.StepMeta, 0, chainRoom(n))
	case inPlace || keep == n:
		meta = prev.meta[:keep]
	default:
		meta = append(make([]trace.StepMeta, 0, chainRoom(n)), prev.meta[:keep]...)
	}
	for i := keep; i < len(p.steps); i++ {
		meta = append(meta, trace.StepMeta{Name: p.steps[i].b.Name, Mode: p.steps[i].mode})
	}
	return meta
}

// bindingMode maps a binding's execution properties to its trace mode.
func bindingMode(b *Binding) trace.Mode {
	switch {
	case b.Filter:
		return trace.ModeFilter
	case b.Async:
		return trace.ModeAsync
	case b.Ephemeral:
		return trace.ModeEphemeral
	}
	return trace.ModeSync
}

// Traced reports whether trace recording is compiled into the plan.
func (p *Plan) Traced() bool { return p.prog != nil }

// Protected reports whether fault capture is compiled into the plan.
func (p *Plan) Protected() bool { return p.protect != nil }

// AdmitQueue returns the admission queue compiled into the plan, or nil
// when asynchronous work spawns unqueued. The dispatcher's async raise path
// consults it on the plan it loaded, so a policy toggle publishes through
// the same atomic swap installs use.
func (p *Plan) AdmitQueue() *admit.Queue { return p.admitQ }

// IndexedRuns reports the number of runs in the plan's guard index and the
// total steps they cover (for tests and disassembly). Both walks dispatch
// through the index.
func (p *Plan) IndexedRuns() (runs, covered int) {
	for i := range p.runs {
		covered += p.runs[i].end - p.runs[i].start
	}
	return len(p.runs), covered
}

// lower returns the binding's lowering, memoised: the guard list
// simplified and reordered, and the flattened twin.
func (b *Binding) lower() *lowered {
	if lo := b.memo.Load(); lo != nil {
		return lo
	}
	lo := &lowered{st: step{b: b, mode: bindingMode(b)}}
	defer b.memo.Store(lo)
	st := &lo.st
	// Fully inline: the generator can execute the binding without any
	// indirect call.
	st.inline = b.Inline != nil && !b.Async && !b.Ephemeral
	for _, g := range b.Guards {
		if g.Pred != nil {
			s := g.Pred.simplify()
			switch s.Op {
			case PredTrue:
				continue // elide constant-true guard
			case PredFalse:
				return lo // dead binding
			}
			g = Guard{Pred: s}
		}
		st.inline = st.inline && g.Pred != nil
		st.guards = append(st.guards, g)
	}
	st.guards = reorderGuards(st.guards)
	lo.live = true
	lo.flatten()
	return lo
}

// reorderGuards moves inline predicates ahead of out-of-line guards,
// preserving relative order within each class (a stable partition). §2.3:
// guards are FUNCTIONAL, which "allows the dispatcher to reorder or
// short-circuit guard execution entirely in order to improve performance"
// — a cheap failing predicate now spares the indirect calls behind it.
func reorderGuards(gs []Guard) []Guard {
	if len(gs) < 2 {
		return gs
	}
	out := make([]Guard, 0, len(gs))
	for _, g := range gs {
		if g.Pred != nil {
			out = append(out, g)
		}
	}
	cheap := len(out)
	for _, g := range gs {
		if g.Pred == nil {
			out = append(out, g)
		}
	}
	if cheap == 0 || cheap == len(out) {
		return gs // single class: keep the original slice
	}
	return out
}

// Direct returns the bypass binding, or nil when the event dispatches
// through the generated routine. The dispatcher uses it to skip plan
// execution entirely.
func (p *Plan) Direct() *Binding {
	if p.direct == nil {
		return nil
	}
	return p.direct.b
}

// HasFilter reports whether the plan has a filter step, which rewrites the
// argument vector in place: a caller whose raiser keeps the vector passes
// Execute a copy.
func (p *Plan) HasFilter() bool { return p.filters > 0 }

// RetainsArgs reports whether executing the plan may retain the raise
// argument slice beyond the raise itself: an asynchronous handler runs on
// another thread of control after the raiser proceeds, and an abandoned
// EPHEMERAL handler keeps executing past its deadline. Callers that pool
// argument buffers must pass such plans a private copy.
func (p *Plan) RetainsArgs() bool { return p.retaining > 0 }

// Steps reports the number of live dispatch steps (for tests and
// disassembly).
func (p *Plan) Steps() int { return len(p.steps) }

// StepBinding returns the binding step i runs: a recompile walks back from
// the end with it to find the steps its change left alone.
func (p *Plan) StepBinding(i int) *Binding { return p.steps[i].b }

// Execute runs the generated dispatch routine. args is the dispatcher's
// private per-raise argument vector: filters mutate it in place, which is
// visible to subsequent steps, so a caller whose raiser keeps the slice
// passes a copy when HasFilter reports true, and one it will not reuse
// when RetainsArgs does. stripeIdx is the caller's
// hoisted stripe shard index (stripe.Index()) for the raise's one
// statistics add, of its firings beyond one, filters included, to
// Env.FiredExcess.
func (p *Plan) Execute(env *Env, args []any, stripeIdx int) Outcome {
	var r *recorder
	if p.prog != nil {
		// Tracing compiled in: draw the sampling decision; sampled raises
		// record spans. Untraced plans pay only the nil check above.
		var rec recorder
		r = p.sample(env.CPU, args, &rec)
	}
	plain := r == nil && env.CPU == nil // unmetered and unsampled
	switch {
	case p.direct != nil && plain && p.protect == nil:
		// The procedure call itself: one handler, one firing, no excess.
		return Outcome{Result: runBody(p.direct.b, p.direct.inline, args), Fired: 1}
	case p.direct != nil:
		return p.executeDirect(env, args, r)
	case plain:
		out, fired := p.frame(p, args, nil)
		env.addExcess(stripeIdx, fired)
		return out
	}
	return p.observe(env, args, stripeIdx, r)
}

// observe runs one frame through the plan's observed instantiation, which
// charges env.CPU and records through rec (either may be nil). It calls the
// instantiations statically, so ws stays on the stack, and adds the frame's
// firings beyond one to the excess.
func (p *Plan) observe(env *Env, args []any, idx int, rec *recorder) Outcome {
	cpu := env.CPU
	if p.allInline {
		cpu.Charge(vtime.InlineEntry)
		cpu.ChargeN(vtime.ArgCopy, p.info.Arity)
	} else {
		cpu.Charge(vtime.DispatchEntry)
		cpu.ChargeN(vtime.DispatchEntryArg, p.info.Arity)
	}
	if p.filters > 0 {
		// Snapshot cost for preserving the raiser's view of arguments
		// ahead of the first filter (§2.4 Typechecking).
		cpu.ChargeN(vtime.ArgCopy, p.info.Arity)
	}
	ws := walkState{env: env}
	if rec != nil {
		ws.rec = *rec
	}
	var out Outcome
	var fired int64
	switch {
	case p.protect != nil && p.info.HasResult:
		out, fired = flatFrame[on, off, on, on](p, args, &ws)
	case p.protect != nil:
		out, fired = flatFrame[off, off, on, on](p, args, &ws)
	case p.info.HasResult:
		out, fired = flatFrame[on, off, off, on](p, args, &ws)
	default:
		out, fired = flatFrame[off, off, off, on](p, args, &ws)
	}
	env.addExcess(idx, fired)
	if rec := ws.recorder(); rec != nil {
		rec.end(out)
	}
	return out
}

// recorder carries one sampled raise's span recording through the observed
// walk; an unsampled raise has a nil one (open is a no-op on nil, every
// other site is nil-checked). Spans are timed in virtual time when metered,
// the §3 tables' numbers; unmetered, by a synthetic stamp at zero cost.
type recorder struct {
	prog    *trace.Program
	cpu     *vtime.CPU
	raise   uint64
	begin   int64 // the raise's opening stamp
	start   int64 // the open span's stamp (see open)
	metered bool
}

// sample draws the trace sampling decision for one raise of a traced plan:
// on a hit it fills rec, opens the raise's span group and returns rec;
// otherwise it returns nil.
func (p *Plan) sample(cpu *vtime.CPU, args []any, rec *recorder) *recorder {
	raise, sampled := p.prog.Begin()
	if !sampled {
		return nil
	}
	*rec = recorder{prog: p.prog, cpu: cpu, raise: raise, metered: p.prog.Metered(cpu)}
	rec.begin = rec.stamp()
	arg0, _ := argWord(args, 0)
	rec.prog.RaiseBegin(raise, rec.begin, arg0)
	return rec
}

func (r *recorder) stamp() int64 { return r.prog.Stamp(r.cpu) }

// cost measures the virtual time a span consumed; unmetered spans record
// zero cost rather than meaningless tick deltas.
func (r *recorder) cost(start int64) int64 {
	if r.metered {
		return int64(r.cpu.Now()) - start
	}
	return 0
}

// open stamps the start of the next span; handler, guard and merge close
// it. Spans never nest inside a raise, so one open stamp suffices.
func (r *recorder) open() {
	if r != nil {
		r.start = r.stamp()
	}
}

func (r *recorder) handler(step int, mode trace.Mode, completed bool) {
	r.prog.Handler(r.raise, step, mode, completed, r.start, r.cost(r.start))
}

func (r *recorder) guard(step, guard int, inline, pass bool) {
	r.prog.Guard(r.raise, step, guard, inline, pass, r.start, r.cost(r.start))
}

func (r *recorder) merge(index int) {
	r.prog.Merge(r.raise, index, r.start, r.cost(r.start))
}

// end closes the raise's span group with its outcome; a rejected raise
// fired nothing.
func (r *recorder) end(out Outcome) {
	r.prog.RaiseEnd(r.raise, r.stamp(), r.cost(r.begin), max(out.Fired, 0), out.Ambiguous, out.UsedDefault)
}

// evalGuards is runStep's guard evaluation: one step's guards, each charged
// and recorded as one span when ws holds a raise's Env, up to the first
// that fails. On an index hit the lookup decided the first guard if it is
// the equality itself (not a conjunction starting with it). A panicking
// out-of-line guard reaches the frame's barrier (capture), if any, which
// records its span.
func (p *Plan) evalGuards(st *step, hit bool, args []any, ws *walkState) bool {
	cpu, rec := ws.meter()
	i := 0
	if hit && st.guards[0].Pred.Op == PredArgEq {
		i = 1
	}
	for ; i < len(st.guards); i++ {
		g := &st.guards[i]
		rec.open()
		inline := g.Pred != nil
		var pass bool
		if inline {
			cpu.Charge(vtime.GuardInline)
			pass = g.Pred.Eval(args)
		} else {
			cpu.Charge(vtime.GuardIndirect)
			if ws != nil {
				ws.pos, ws.guard, ws.phase = st.idx, i, inGuard
			}
			pass = g.Fn(g.Closure, args)
			if ws != nil {
				ws.phase = inWalk
			}
		}
		if rec != nil {
			rec.guard(st.idx, i, inline, pass)
		}
		if !pass {
			return false
		}
	}
	return true
}

// chargeHandler charges the handler-invocation cost for one step.
func (p *Plan) chargeHandler(cpu *vtime.CPU, st *step) {
	if st.inline {
		cpu.Charge(vtime.HandlerInline)
		cpu.ChargeN(vtime.BindingInlineArg, p.info.Arity)
	} else {
		cpu.Charge(vtime.HandlerIndirect)
		cpu.ChargeN(vtime.BindingIndirectArg, p.info.Arity)
	}
}

// runBody invokes a handler synchronously, with no intermediate closure: the
// direct bypass and the default handler run through it, and the flattened
// steps mirror it; inline is the step's compiled inline flag.
func runBody(b *Binding, inline bool, args []any) any {
	if inline {
		return b.Inline.Run(args)
	}
	if b.CtxFn != nil {
		return b.CtxFn(context.Background(), b.Closure, args)
	}
	return b.Fn(b.Closure, args)
}

// invoker returns the detachable invocation of an asynchronous or ephemeral
// handler (never inline); the context carries watchdog cancellation to a
// cooperative (CtxFn) handler.
func invoker(b *Binding, args []any) func(context.Context) any {
	if b.CtxFn != nil {
		return func(ctx context.Context) any { return b.CtxFn(ctx, b.Closure, args) }
	}
	return func(context.Context) any { return b.Fn(b.Closure, args) }
}

// Executor names the body an unsampled raise of the plan runs: "direct"
// (the single-binding bypass, also ExecuteBatch's frame loop), the plain
// stencil "stencil[R,G]" (every unmetered raise of any other plan, boundary
// steps included), or the observed one, "stencil[R,observed]" (metered
// raises, and sampled ones); ",barrier" is appended behind the fault
// barrier.
func (p *Plan) Executor(metered bool) string {
	if p.direct != nil {
		return "direct"
	}
	name := "stencil[void"
	if p.info.HasResult {
		name = "stencil[fold"
	}
	switch {
	case metered:
		name += ",observed"
	case p.leaves > 0:
		name += ",guarded"
	default:
		name += ",unguarded"
	}
	if p.protect != nil {
		name += ",barrier"
	}
	return name + "]"
}

// Disassemble renders the plan as pseudo-code, the analog of dumping the
// generated stub. Used by tests and `spin tables -disasm`.
func (p *Plan) Disassemble() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan %s/%d", p.info.Name, p.info.Arity)
	if p.info.HasResult {
		sb.WriteString(" -> result")
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "  executor: %s", p.Executor(false))
	switch {
	case p.direct != nil:
		sb.WriteString(" (direct call, dispatcher bypassed)\n")
		return sb.String()
	case p.GuardedBypass():
		sb.WriteString(" (guarded bypass: single straight-line step)\n")
	default:
		fmt.Fprintf(&sb, " (%d steps, %d guard leaves)\n", len(p.steps), p.leaves)
	}
	writeStep := func(i int, st *step) {
		fmt.Fprintf(&sb, "  step %d:", i)
		if st.inline {
			sb.WriteString(" [inline]")
		}
		for _, g := range st.guards {
			if g.Pred != nil {
				fmt.Fprintf(&sb, " if %s", g.Pred)
			} else {
				sb.WriteString(" if <call guard>")
			}
		}
		fmt.Fprintf(&sb, " do %s", st.b.Inline)
		if st.b.Async {
			sb.WriteString(" async")
		}
		if st.b.Ephemeral {
			sb.WriteString(" ephemeral")
		}
		if st.b.Filter {
			sb.WriteString(" filter")
		}
		sb.WriteByte('\n')
	}
	runs := p.runs
	for i := range p.steps {
		if len(runs) > 0 && runs[0].start == i {
			r := &runs[0]
			runs = runs[1:]
			fmt.Fprintf(&sb, "  index arg%d: steps %d..%d, %d keys, %d slots\n",
				r.arg, r.start, r.end-1, r.keys, len(r.slots))
		}
		writeStep(i, &p.steps[i])
	}
	if p.def != nil {
		sb.WriteString("  default handler installed\n")
	}
	if p.resultFn != nil {
		sb.WriteString("  result handler installed\n")
	}
	return sb.String()
}
