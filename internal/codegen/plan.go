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
	// guard counts as failed.
	GuardPanic(tag any, val any, stack []byte)
	// SyncCost reports the virtual-time cost of one synchronous handler
	// invocation on a metered dispatcher (for overrun budgets).
	SyncCost(tag any, cost vtime.Duration)
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
	// Env.Async; their results are not returned to the raiser.
	Async bool
	// Ephemeral handlers run under Env.RunEphemeral, which may terminate
	// them (paper §2.6 "Runaway handlers").
	Ephemeral bool
	// Filter marks a handler that takes parameters by reference and may
	// rewrite them for subsequent handlers and guards.
	Filter bool
	// Tag is an opaque back-pointer for the dispatcher (statistics,
	// termination reporting). The generator never inspects it.
	Tag any
	// FireCount, when non-nil, is the binding's striped fire counter: every
	// executor adds each firing of the binding to it through the caller's
	// hoisted stripe shard index.
	FireCount *stripe.Counter
	// Name is the handler's qualified procedure name, used only to label
	// trace spans; the generated code never inspects it.
	Name string
	// memo is the binding's last lowering (see lowered).
	memo atomic.Pointer[lowered]
}

// lowered is a binding's compiled form under DisablePeephole, the one
// option that shapes it: the step Compile copies into a plan and its
// flattened twin with the guard leaves behind the embedded first. The
// binding memoises it, so recompiling an event lowers the new bindings and
// copies the rest — a third of an install on a long handler list went into
// redoing them.
type lowered struct {
	noPeephole bool
	live       bool // false: peephole proved the binding can never fire
	st         step
	flat       flatStep   // p0/p1 are set per plan
	rest       []flatPred // the leaves after flat.g0
	leaves     int        // all guard leaves, g0 included
}

// EventInfo carries the event attributes the generator specializes on.
type EventInfo struct {
	Name      string
	Arity     int
	HasResult bool
}

// Options disable individual generator optimizations, for the ablation
// benchmarks. The zero value enables everything SPIN's generator did,
// and nothing it did not.
type Options struct {
	// DisableBypass keeps the dispatch routine in place even for a
	// single unguarded synchronous binding.
	DisableBypass bool
	// DisablePeephole skips plan simplification.
	DisablePeephole bool
	// EnableDecisionTree lets the general executor consult the guard
	// index (tree.go) — the guard optimization the paper names as future
	// work (§3.2): a run of consecutive bindings whose first guard leaf is
	// an ArgEq predicate on the same argument dispatches through one hash
	// of the argument word, charged as one inline guard, instead of a
	// linear guard scan. Off by default, so the general executor stays the
	// linear reference and the calibrated model matches the measured
	// system. The stencil uses the index regardless.
	EnableDecisionTree bool
	// DisableSpecialize keeps every plan on the general executor,
	// disabling the ahead-of-time flattened, shape-specialized stencil
	// (flat.go) — the reference the differential fuzzers compare against
	// and the "general executor" row of the specialization ablation.
	DisableSpecialize bool
	// Trace, when non-nil, compiles trace recording steps into the plan:
	// the generated routine registers its step layout with the tracer and
	// sampled raises run the general executor with a span recorder. A nil
	// Trace compiles a plan that never draws a sampling decision, so a
	// disabled tracer costs nothing on the hot path (the zero-cost-off
	// property TestTracingOffZeroAlloc enforces).
	Trace *trace.Tracer
	// Protect, when non-nil, compiles fault capture into the plan: a panic
	// in a handler body or an out-of-line guard goes to the hook instead of
	// the raiser, and so do virtual-time overruns. A panicking handler
	// counts as fired with no result; a panicking guard counts as failed.
	// The stencil runs each frame behind one recover barrier; the general
	// executor keeps one per call. Plans compiled without Protect carry no
	// recovery code at all — the same zero-cost-off contract tracing has
	// (DESIGN.md decision 12).
	Protect FaultHook
	// Admit, when non-nil, compiles the event's admission queue into the
	// plan: every asynchronous handler invocation hands it to Env.Async,
	// which submits the invocation to the bounded queue instead of spawning
	// it, and asynchronous raises of the event pass through the same queue.
	// A nil Admit hands Env.Async a nil queue: the unqueued spawn path
	// (DESIGN.md decision 13).
	Admit *admit.Queue
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

// Plan is an immutable compiled dispatch routine. The dispatcher publishes
// a new plan with a single atomic pointer store on every installation or
// removal, so raises in flight keep executing the old plan — the paper's
// "handler lists are updated atomically with respect to event dispatch by
// using a single memory access".
type Plan struct {
	info  EventInfo
	opts  Options
	steps []step
	// runs is the guard index (tree.go): the runs of equality-guarded steps
	// the stencil jumps through, and the general executor too under
	// Options.EnableDecisionTree. Built only for plans where one of the two
	// reads it.
	runs      []guardRun
	direct    *step // non-nil: single-binding bypass, dispatcher skipped
	resultFn  ResultFn
	def       *step // default handler, nil when none installed
	allInline bool
	hasFilter bool
	// retains is set when some live binding (asynchronous or ephemeral)
	// may hold the raise argument slice past the raise, so callers must
	// not recycle it. Dispatcher fast paths consult RetainsArgs before
	// reusing pooled argument buffers.
	retains bool
	// Bindings is the number of live bindings compiled into the plan,
	// used by the dispatcher to charge the O(n) regeneration cost.
	Bindings int
	// prog is the plan's trace recording handle, non-nil only when the
	// plan was compiled with Options.Trace. Untraced plans pay a single
	// nil check per raise and nothing else.
	prog *trace.Program
	// protect is the fault hook compiled into the plan (Options.Protect);
	// nil plans execute with no recovery barriers at all.
	protect FaultHook
	// admitQ is the admission queue compiled into the plan
	// (Options.Admit); nil plans spawn asynchronous work unqueued.
	admitQ *admit.Queue
	// Ahead-of-time specialization (flat.go): the flattened step array, the
	// (followed by the default handler's statistics record, if there is
	// one), the pool of guard leaves behind each step's embedded first and
	// the count of all leaves, and the stencil instantiation selected at
	// compile time (with its name, for Executor). All nil/empty when the
	// plan stays on the general executor.
	flat      []flatStep
	flatPreds []flatPred
	leaves    int
	frame     frameFn
	frameName string
}

// Env supplies the execution hooks the generated routine needs from the
// dispatcher: a CPU meter (nil when unmetered), the asynchronous and
// ephemeral supervisors, and the event's fired total.
type Env struct {
	CPU *vtime.CPU
	// Async runs one asynchronous handler invocation on a separate thread
	// of control: submitted to q, the admission queue compiled into the
	// plan (and possibly shed), or spawned directly when q is nil. arity is
	// the number of arguments copied to the new thread (it determines the
	// spawn cost); invoke's context carries the supervisor's cancellation.
	// Required if any binding is Async.
	Async func(q *admit.Queue, tag any, arity int, invoke func(context.Context) any)
	// RunEphemeral runs invoke under termination supervision, returning
	// its result and whether it ran to completion; the context is
	// cancelled if the watchdog abandons the invocation. Required if any
	// binding is Ephemeral.
	RunEphemeral func(tag any, invoke func(context.Context) any) (any, bool)
	// FiredTotal, if non-nil, receives the number of handlers that fired
	// (filters and a default-handler firing included) with one striped add
	// per raise — once per batch on the stencil and direct batch tiers —
	// through the caller's hoisted stripe shard index.
	FiredTotal *stripe.Counter
}

// Outcome reports what a raise did.
type Outcome struct {
	// Result is the merged result (meaningful only when the event has a
	// result and Fired > 0 or UsedDefault).
	Result any
	// Fired counts handlers that ran, excluding the default handler.
	Fired int
	// Ambiguous is set when multiple handlers produced results but no
	// result handler was installed to merge them; Result then holds the
	// last result, and the dispatcher surfaces an error.
	Ambiguous bool
	// UsedDefault is set when no handler fired and the default handler
	// supplied the result.
	UsedDefault bool
}

// Compile generates the dispatch routine for the given binding list. The
// returned plan is immutable; the dispatcher swaps it in atomically.
func Compile(info EventInfo, bindings []*Binding, resultFn ResultFn, defaultB *Binding, opts Options) *Plan {
	p := &Plan{info: info, opts: opts, resultFn: resultFn,
		protect: opts.Protect, admitQ: opts.Admit}
	if defaultB != nil {
		// The default handler runs as a step outside the step list; -1 is
		// the step index its trace span carries.
		p.def = &step{b: defaultB, idx: -1, inline: defaultB.Inline != nil}
	}
	p.steps = make([]step, 0, len(bindings))
	pooled := 0 // guard leaves behind the steps' embedded first
	allInline := true
	for _, b := range bindings {
		lo := b.lower(opts)
		if !lo.live {
			continue
		}
		pooled += len(lo.rest)
		allInline = allInline && lo.st.inline
		st := lo.st
		st.idx = len(p.steps)
		p.steps = append(p.steps, st)
		p.Bindings++
		if b.Filter {
			p.hasFilter = true
		}
		if b.Async || b.Ephemeral {
			p.retains = true
		}
	}
	p.allInline = allInline && len(p.steps) > 0
	// Single-binding bypass: one live synchronous unguarded non-filter
	// binding dispatches as a direct procedure call (Figure 1's "an event
	// with only an intrinsic handler is identical to a procedure call").
	if !opts.DisableBypass && len(p.steps) == 1 && defaultB == nil && resultFn == nil {
		st := &p.steps[0]
		if len(st.guards) == 0 && !st.b.Async && !st.b.Ephemeral && !st.b.Filter {
			p.direct = st
		}
	}
	p.compileFlat(pooled)
	if p.frame != nil || opts.EnableDecisionTree {
		p.runs = buildGuardIndex(p.steps)
	}
	if opts.Trace != nil {
		// Register the plan's step layout with the tracer: span records
		// carry only (program, step) indices, and the registry resolves
		// them to names at export time, keeping the recording path
		// allocation free. The registry retains metadata for superseded
		// plans, so spans recorded against a swapped-out plan still
		// resolve.
		meta := trace.EventMeta{Event: info.Name,
			Steps: make([]trace.StepMeta, len(p.steps))}
		for i := range p.steps {
			meta.Steps[i] = trace.StepMeta{Name: p.steps[i].b.Name, Mode: p.steps[i].mode}
		}
		if defaultB != nil {
			meta.Default = defaultB.Name
		}
		p.prog = opts.Trace.Program(meta)
	}
	return p
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
// total steps they cover (for tests and disassembly). The stencil always
// dispatches through the index; a plan on the general executor carries one
// only under Options.EnableDecisionTree.
func (p *Plan) IndexedRuns() (runs, covered int) {
	for i := range p.runs {
		covered += p.runs[i].end - p.runs[i].start
	}
	return len(p.runs), covered
}

// lower returns the binding's lowering under opts, memoised: the guard list
// simplified and reordered, and the flattened twin.
func (b *Binding) lower(opts Options) *lowered {
	lo := b.memo.Load()
	if lo != nil && lo.noPeephole == opts.DisablePeephole {
		return lo
	}
	lo = &lowered{noPeephole: opts.DisablePeephole, st: step{b: b, mode: bindingMode(b)}}
	defer b.memo.Store(lo)
	st := &lo.st
	// Fully inline: the generator can execute the binding without any
	// indirect call.
	st.inline = b.Inline != nil && !b.Async && !b.Ephemeral
	for _, g := range b.Guards {
		if g.Pred != nil && !opts.DisablePeephole {
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
	if !opts.DisablePeephole {
		st.guards = reorderGuards(st.guards)
	}
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

// RetainsArgs reports whether executing the plan may retain the raise
// argument slice beyond the raise itself: an asynchronous handler runs on
// another thread of control after the raiser proceeds, and an abandoned
// EPHEMERAL handler keeps executing past its deadline. Callers that pool
// argument buffers must pass such plans a private copy.
func (p *Plan) RetainsArgs() bool { return p.retains }

// Steps reports the number of live dispatch steps (for tests and
// disassembly).
func (p *Plan) Steps() int { return len(p.steps) }

// FullyInline reports whether the whole plan executes without indirect
// calls.
func (p *Plan) FullyInline() bool { return p.allInline }

// Execute runs the generated dispatch routine. args is the dispatcher's
// private per-raise argument vector: filters mutate it in place, which is
// visible to subsequent steps but never to the raiser. stripeIdx is the
// caller's hoisted stripe shard index (stripe.Index()), reused for every
// striped counter the raise touches: each firing's Binding.FireCount and
// the raise's one add to Env.FiredTotal.
func (p *Plan) Execute(env *Env, args []any, stripeIdx int) Outcome {
	if p.prog != nil {
		// Tracing compiled in: draw the sampling decision; sampled raises
		// record spans. Untraced plans pay only the nil check above.
		var rec recorder
		if r := p.sample(env.CPU, args, &rec); r != nil {
			return p.general(env, args, stripeIdx, r)
		}
	}
	if p.frame != nil && env.CPU == nil {
		// Unmetered, unsampled raise on a specialized plan: the stencil.
		// Metered raises stay on the general executor so the virtual-time
		// charge sequence is byte-identical with specialization on or off.
		out := p.frame(p, args, stripeIdx, nil)
		env.addFired(stripeIdx, out.fires())
		return out
	}
	return p.general(env, args, stripeIdx, nil)
}

// recorder carries one sampled raise's span recording through the general
// executor. Unsampled raises pass a nil *recorder: open is a no-op on nil
// and every span-closing site is nil-checked, so an unsampled raise pays
// nil checks and records nothing.
//
// Span timing uses virtual time when the raise is metered (costs are then
// the same numbers the §3 tables aggregate); on an unmetered dispatcher
// span starts degrade to a synthetic ordering stamp and costs are zero.
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
// it. Spans never nest inside a raise, so one open stamp suffices — kept
// here rather than in the executor so an unsampled raise carries no stamp
// across its handler calls.
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

// end closes the raise's span group with its outcome.
func (r *recorder) end(out Outcome) {
	r.prog.RaiseEnd(r.raise, r.stamp(), r.cost(r.begin), out.Fired, out.Ambiguous, out.UsedDefault)
}

// general is the general executor: it runs every plan shape, metered or
// not — the direct bypass as a plain call at the top, everything else
// through the step walk — and records spans through rec on sampled raises
// (rec is nil otherwise). It counts firings as the stencil does, on idx,
// the caller's hoisted stripe shard index, and adds the raise's firings to
// Env.FiredTotal itself: filters fire without entering the Outcome.
func (p *Plan) general(env *Env, args []any, idx int, rec *recorder) Outcome {
	cpu := env.CPU
	if st := p.direct; st != nil {
		rec.open()
		cpu.Charge(vtime.CallDirect)
		cpu.ChargeN(vtime.CallDirectArg, p.info.Arity)
		var res any
		completed := true
		if p.protect != nil {
			res, completed = p.callProtected(cpu, st, args)
		} else {
			res = runBody(st.b, st.inline, args)
		}
		countFire(st.b.FireCount, idx)
		env.addFired(idx, 1)
		out := Outcome{Result: res, Fired: 1}
		if rec != nil {
			rec.handler(0, trace.ModeDirect, completed)
			rec.end(out)
		}
		return out
	}

	if p.allInline {
		cpu.Charge(vtime.InlineEntry)
		cpu.ChargeN(vtime.ArgCopy, p.info.Arity)
	} else {
		cpu.Charge(vtime.DispatchEntry)
		cpu.ChargeN(vtime.DispatchEntryArg, p.info.Arity)
	}
	if p.hasFilter {
		// Snapshot cost for preserving the raiser's view of arguments
		// ahead of the first filter (§2.4 Typechecking).
		cpu.ChargeN(vtime.ArgCopy, p.info.Arity)
	}

	var out Outcome
	var haveResult bool
	filtered := 0 // filter firings, which the Outcome does not count
	// execStep runs one step whose guards have already passed. Synchronous
	// handlers are called directly — routing them through invoker's
	// deferred-call closure would heap-allocate on every raise; only the
	// async and ephemeral paths, which genuinely need a detachable
	// invocation, pay for one.
	execStep := func(st *step) {
		b, mode := st.b, st.mode
		var res any
		completed := true
		rec.open()
		p.chargeHandler(cpu, st)
		switch {
		case mode == trace.ModeAsync:
			// The span covers the spawn the raiser pays for; the handler
			// body runs on its own thread of control afterwards.
			env.Async(p.admitQ, b.Tag, p.info.Arity, p.invoker(st, args))
		case mode == trace.ModeEphemeral:
			res, completed = env.RunEphemeral(b.Tag, p.invoker(st, args))
		case p.protect != nil:
			res, completed = p.callProtected(cpu, st, args)
		default:
			res = runBody(st.b, st.inline, args)
		}
		if rec != nil {
			rec.handler(st.idx, mode, completed)
		}
		countFire(b.FireCount, idx)
		if mode == trace.ModeFilter {
			// Filters transform arguments for downstream handlers; they
			// neither produce results nor count as the event having been
			// handled (§2.3 "Passing arguments").
			filtered++
			return
		}
		out.Fired++
		if mode == trace.ModeAsync || !p.info.HasResult || !completed {
			return
		}
		if p.resultFn != nil {
			rec.open()
			cpu.Charge(vtime.ResultMerge)
			out.Result = p.resultFn(out.Result, res, out.Fired-1)
			if rec != nil {
				rec.merge(out.Fired - 1)
			}
		} else {
			if haveResult {
				out.Ambiguous = true
			}
			out.Result = res
			haveResult = true
		}
	}

	// The general executor is the linear reference: it walks every step
	// unless the model's ablation switch hands it the guard index.
	var runs []guardRun
	if p.opts.EnableDecisionTree {
		runs = p.runs
	}
	for i := 0; i < len(p.steps); {
		if len(runs) == 0 || runs[0].start != i {
			if st := &p.steps[i]; p.evalGuards(cpu, st, 0, args, rec) {
				execStep(st)
			}
			i++
			continue
		}
		// Indexed run: one inline comparison-equivalent lookup replaces
		// the whole run's equality tests (§3.2 future work; see tree.go),
		// so it records as one guard span (step -1) whose outcome is
		// whether any step matched.
		run := &runs[0]
		runs = runs[1:]
		rec.open()
		cpu.Charge(vtime.GuardInline)
		hit := run.find(args)
		if rec != nil {
			rec.guard(-1, 0, true, hit != run.end)
		}
		for j := hit; j != run.end; j = run.next(j) {
			st := &p.steps[j]
			// The lookup decided the equality. When it is the whole first
			// guard, evaluation resumes at the second; when it is the first
			// leaf of a conjunction, the guard is evaluated whole.
			from := 0
			if st.guards[0].Pred.Op == PredArgEq {
				from = 1
			}
			if p.evalGuards(cpu, st, from, args, rec) {
				execStep(st)
			}
		}
		i = run.end
	}

	if st := p.def; out.Fired == 0 && st != nil {
		rec.open()
		cpu.Charge(vtime.HandlerIndirect)
		completed := true
		if p.protect != nil {
			out.Result, completed = p.callProtected(cpu, st, args)
		} else {
			out.Result = runBody(st.b, st.inline, args)
		}
		if rec != nil {
			rec.handler(st.idx, trace.ModeDefault, completed)
		}
		countFire(st.b.FireCount, idx)
		out.UsedDefault = true
	}
	env.addFired(idx, out.fires()+int64(filtered))
	if rec != nil {
		rec.end(out)
	}
	return out
}

// evalGuards evaluates one step's guard list from guard index from on (0
// except on an index hit, whose first guard the lookup already decided),
// charging per the generated configuration and recording one span per
// evaluation: guard index, inline-versus-indirect, and outcome. Evaluation
// stops at the first failing guard, whose failure span closes the step.
func (p *Plan) evalGuards(cpu *vtime.CPU, st *step, from int, args []any, rec *recorder) bool {
	for i := from; i < len(st.guards); i++ {
		g := &st.guards[i]
		rec.open()
		inline := g.Pred != nil
		var pass bool
		switch {
		case inline:
			cpu.Charge(vtime.GuardInline)
			pass = g.Pred.Eval(args)
		case p.protect != nil:
			cpu.Charge(vtime.GuardIndirect)
			pass = p.guardProtected(g, st.b.Tag, args)
		default:
			cpu.Charge(vtime.GuardIndirect)
			pass = g.Fn(g.Closure, args)
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

// runBody invokes a handler synchronously — the "direct procedure call" the
// unrolled routine makes — with no intermediate closure. It is the one body
// runner: steps, the direct bypass (and its batch tier) and the default
// handler all run through it; inline is the step's compiled inline flag.
func runBody(b *Binding, inline bool, args []any) any {
	if inline {
		return b.Inline.Run(args)
	}
	if b.CtxFn != nil {
		return b.CtxFn(context.Background(), b.Closure, args)
	}
	return b.Fn(b.Closure, args)
}

// invoker returns the handler invocation closure for a step, used by the
// asynchronous and ephemeral paths whose invocations outlive the loop
// iteration. The context parameter carries watchdog cancellation to
// cooperative (CtxFn) handlers.
func (p *Plan) invoker(st *step, args []any) func(context.Context) any {
	b := st.b
	if st.inline {
		return func(context.Context) any { return b.Inline.Run(args) }
	}
	if b.CtxFn != nil {
		return func(ctx context.Context) any { return b.CtxFn(ctx, b.Closure, args) }
	}
	return func(context.Context) any { return b.Fn(b.Closure, args) }
}

// Executor names the body an unsampled raise of the plan runs — the
// executor inventory: "direct" (the single-binding bypass and its batch
// tier), "stencil[R,G]" or, behind the fault barrier, "stencil[R,G,barrier]"
// (the flatFrame instantiation compileFlat selected, unmetered raises
// only), or "general" (everything else, including the metered and the
// trace-sampled raises of a stencil plan).
func (p *Plan) Executor(metered bool) string {
	switch {
	case p.direct != nil:
		return "direct"
	case p.frame != nil && !metered:
		return p.frameName
	}
	return "general"
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
	case p.frame != nil:
		fmt.Fprintf(&sb, " (%d steps, %d guard leaves)\n", len(p.steps), p.leaves)
	default:
		sb.WriteByte('\n')
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
