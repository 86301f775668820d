package codegen

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"spin/internal/stripe"
	"spin/internal/vtime"
)

// guardedBindings builds n bindings each guarded by an always-true global
// comparison, the canonical flat-eligible shape.
func guardedBindings(n int, count *int) []*Binding {
	cell := new(atomic.Uint64)
	bs := make([]*Binding, n)
	for i := range bs {
		bs[i] = &Binding{
			Guards: []Guard{{Pred: GlobalEq(cell, 0)}},
			Fn:     countingHandler(count, nil),
		}
	}
	return bs
}

// TestSpecializeEligibility is the executor inventory: which body — the
// direct entry, a plain stencil instantiation or an observed one — each
// plan shape runs, and whether the plan carries a guard index for it.
// Plan.Disassemble prints the same name. Every plan but the direct one has
// a plain stencil, async and ephemeral steps included; only the
// unprotected direct one is Batchable.
func TestSpecializeEligibility(t *testing.T) {
	n := 0
	h := func() *Binding { return &Binding{Fn: countingHandler(&n, nil)} }
	guardedN := func(k int, mut func(*Binding)) []*Binding {
		bs := guardedBindings(k, &n)
		if mut != nil {
			mut(bs[0])
		}
		return bs
	}
	tree := make([]*Binding, treeThreshold)
	for i := range tree {
		tree[i] = &Binding{
			Guards: []Guard{{Pred: ArgEq(0, uint64(i))}},
			Fn:     countingHandler(&n, nil),
		}
	}
	fold := func(acc, res any, _ int) any { return res }
	for _, tc := range []struct {
		shape     string
		arity     int
		hasResult bool
		bindings  []*Binding
		resultFn  ResultFn
		opts      Options
		metered   bool
		want      string
		runs      int // indexed runs the plan carries
	}{
		{shape: "unguarded single", bindings: []*Binding{h()}, want: "direct"},
		{shape: "unguarded single, metered", bindings: []*Binding{h()}, metered: true, want: "direct"},
		{shape: "unguarded single, fault policy on", bindings: []*Binding{h()},
			opts: Options{Protect: &recHook{}}, want: "direct"},
		{shape: "guarded single", arity: 1, bindings: guardedN(1, nil), want: "stencil[void,guarded]"},
		{shape: "multi-step void, unguarded", arity: 1, bindings: []*Binding{h(), h()},
			want: "stencil[void,unguarded]"},
		{shape: "multi-step void, guarded", arity: 1, bindings: guardedN(2, nil),
			want: "stencil[void,guarded]"},
		{shape: "multi-step fold, unguarded", arity: 1, hasResult: true,
			bindings: []*Binding{h(), h()}, resultFn: fold, want: "stencil[fold,unguarded]"},
		{shape: "multi-step fold, guarded", arity: 1, hasResult: true,
			bindings: guardedN(2, nil), resultFn: fold, want: "stencil[fold,guarded]"},
		{shape: "wide arity", arity: 8, bindings: guardedN(2, nil), want: "stencil[void,guarded]"},
		{shape: "filter", arity: 1, bindings: guardedN(2, func(b *Binding) { b.Filter = true }),
			want: "stencil[void,guarded]"},
		{shape: "filter, fault policy on", arity: 1, bindings: guardedN(2, func(b *Binding) { b.Filter = true }),
			opts: Options{Protect: &recHook{}}, want: "stencil[void,guarded,barrier]"},
		{shape: "filter, metered", arity: 1, bindings: guardedN(2, func(b *Binding) { b.Filter = true }),
			metered: true, want: "stencil[void,observed]"},
		{shape: "async", arity: 1, hasResult: true, bindings: guardedN(2, func(b *Binding) { b.Async = true }),
			want: "stencil[fold,guarded]"},
		{shape: "async, metered", arity: 1, hasResult: true, bindings: guardedN(2, func(b *Binding) { b.Async = true }),
			metered: true, want: "stencil[fold,observed]"},
		{shape: "ephemeral, fault policy on", arity: 1, bindings: guardedN(2, func(b *Binding) { b.Ephemeral = true }),
			opts: Options{Protect: &recHook{}}, want: "stencil[void,guarded,barrier]"},
		{shape: "fault policy on", arity: 1, bindings: guardedN(2, nil),
			opts: Options{Protect: &recHook{}}, want: "stencil[void,guarded,barrier]"},
		{shape: "fault policy on, metered", arity: 1, bindings: guardedN(2, nil),
			opts: Options{Protect: &recHook{}}, metered: true, want: "stencil[void,observed,barrier]"},
		{shape: "indexed run", arity: 1, bindings: tree, want: "stencil[void,guarded]", runs: 1},
		{shape: "indexed run, metered", arity: 1, bindings: tree, metered: true,
			want: "stencil[void,observed]", runs: 1},
		{shape: "indexed run, fault policy on", arity: 1, bindings: tree,
			opts: Options{Protect: &recHook{}}, want: "stencil[void,guarded,barrier]", runs: 1},
		{shape: "metered, fold", arity: 1, hasResult: true, bindings: guardedN(2, nil), resultFn: fold,
			metered: true, want: "stencil[fold,observed]"},
	} {
		p := Compile(nil, 0, info(tc.arity, tc.hasResult), tc.bindings, tc.resultFn, nil, fakeSupervisors(tc.opts, nil, new(int)))
		if got := p.Executor(tc.metered); got != tc.want {
			t.Errorf("%s: executor %s, want %s", tc.shape, got, tc.want)
		}
		if !tc.metered && !strings.Contains(p.Disassemble(), "executor: "+tc.want) {
			t.Errorf("%s: disassembly does not name %s:\n%s", tc.shape, tc.want, p.Disassemble())
		}
		if runs, _ := p.IndexedRuns(); runs != tc.runs {
			t.Errorf("%s: %d indexed runs, want %d", tc.shape, runs, tc.runs)
		}
		if (p.Direct() != nil) != (tc.want == "direct") {
			t.Errorf("%s: Direct()=%v with executor %s", tc.shape, p.Direct() != nil, tc.want)
		}
		if want := tc.want == "direct" && tc.opts.Protect == nil; p.Batchable() != want {
			t.Errorf("%s: Batchable()=%v, want %v", tc.shape, p.Batchable(), want)
		}
	}
	if gb := Compile(nil, 0, info(1, false), guardedN(1, nil), nil, nil, Options{}); !gb.GuardedBypass() {
		t.Error("guarded single binding must use the guarded bypass")
	}
}

func TestSpecializedExecutesIdentically(t *testing.T) {
	cell := new(atomic.Uint64)
	fired := []string{}
	mark := func(name string) HandlerFn {
		return func(any, []any) any { fired = append(fired, name); return name }
	}
	bs := []*Binding{
		{Guards: []Guard{{Pred: ArgEq(0, 80)}}, Fn: mark("http")},
		{Guards: []Guard{{Pred: And(GlobalEq(cell, 0), ArgEq(0, 443))}}, Fn: mark("https")},
		{Guards: []Guard{{Fn: func(_ any, args []any) bool { return true }}}, Fn: mark("all")},
	}
	// The plain stencil (unmetered) and the observed walk (metered) fire
	// what the reference model fires, in order, with the same outcome.
	run := func(metered bool, args ...any) ([]string, Outcome) {
		p := Compile(nil, 0, info(1, true), bs, nil, nil, Options{})
		fired = nil
		out := p.Execute(&Env{CPU: meteredCPU(metered)}, args, 0)
		return fired, out
	}
	for _, args := range [][]any{{uint64(80)}, {uint64(443)}, {uint64(7)}} {
		var want []string
		for _, b := range bs {
			if naivePasses(b, args) {
				want = append(want, b.Fn(nil, args).(string))
			}
		}
		plain, plainOut := run(false, args...)
		observed, observedOut := run(true, args...)
		if !reflect.DeepEqual(plain, want) || !reflect.DeepEqual(observed, want) {
			t.Fatalf("args %v: stencil fired %v, observed walk %v, model %v", args, plain, observed, want)
		}
		if plainOut != observedOut || plainOut.Fired != len(want) || plainOut.Result != want[len(want)-1] {
			t.Fatalf("args %v: stencil outcome %+v, observed walk %+v, model %v", args, plainOut, observedOut, want)
		}
	}
}

func TestSpecializedDefaultHandler(t *testing.T) {
	n := 0
	d := &Binding{Fn: func(any, []any) any { return "default" }}
	p := Compile(nil, 0, info(1, true), guardedBindings(1, &n), nil, d, Options{})
	if got := p.Executor(false); got != "stencil[fold,guarded]" {
		t.Fatalf("plan with default handler runs %s, want the plain stencil", got)
	}
	// Guard cell is 0 -> handler fires, no default.
	out := p.Execute(&Env{}, []any{uint64(1)}, 0)
	if out.Fired != 1 || out.UsedDefault {
		t.Fatalf("fired=%d usedDefault=%v", out.Fired, out.UsedDefault)
	}
	// Fail the guard: the default must fire and be counted batched.
	cell2 := new(atomic.Uint64)
	cell2.Store(9)
	bs := []*Binding{{
		Guards: []Guard{{Pred: GlobalEq(cell2, 0)}},
		Fn:     countingHandler(&n, nil),
	}}
	p2 := Compile(nil, 0, info(1, true), bs, nil, d, Options{})
	var excess stripe.Counter
	out = p2.Execute(&Env{FiredExcess: &excess}, []any{uint64(1)}, 0)
	if out.Fired != 0 || !out.UsedDefault || out.Result != "default" {
		t.Fatalf("default not applied: %+v", out)
	}
	if got := 1 + excess.Load(); got != 1 {
		t.Fatalf("1 frame + excess = %d after default firing, want 1", got)
	}
}

// faultCall is one FaultHook capture, as the recording hook saw it.
type faultCall struct {
	guard bool
	tag   any
}

// recHook records the captures a protected plan delivers, in order. A
// non-nil repanic is what GuardPanic panics with after recording, the way
// the dispatcher's hook passes a panic on to the raiser when it enforces no
// policy; a non-nil reject is the error GuardPanic rejects the raise with,
// the way the dispatcher's hook rejects the purity monitor's verdict.
type recHook struct {
	calls   []faultCall
	repanic any
	reject  error
}

func (h *recHook) HandlerPanic(tag, _ any, _ []byte) {
	h.calls = append(h.calls, faultCall{tag: tag})
}

func (h *recHook) GuardPanic(tag, _ any, _ []byte) error {
	h.calls = append(h.calls, faultCall{guard: true, tag: tag})
	if h.repanic != nil {
		panic(h.repanic)
	}
	return h.reject
}

// barrierRun is what one raise of a protected plan did, as the bare and the
// metered barrier must agree on it.
type barrierRun struct {
	out    Outcome
	fired  []int64 // each binding's invocations, the default handler's last
	total  int64   // the raise's one frame plus its FiredExcess
	folds  []int   // the index each result-handler call carried
	faults []faultCall
}

// meteredCPU returns a fresh metered CPU, or nil.
func meteredCPU(metered bool) *vtime.CPU {
	if !metered {
		return nil
	}
	return vtime.NewCPU(&vtime.Clock{}, vtime.AlphaModel())
}

// TestBarrierEdges walks the per-frame barrier's corners: every case runs on
// the bare barrier (unmetered) and on the metered one (the observed walk)
// and the two must agree on the outcome, the fire sequence, the fold
// indices and the hook's call sequence; the cases also pin the values
// themselves.
func TestBarrierEdges(t *testing.T) {
	const n = 4
	// plan builds n call-guarded result bindings (binding i returns i, tag i)
	// and a default handler (tag n). guardAt and handlerAt name the binding
	// whose guard or handler panics (-1: none; n as handlerAt: the default);
	// pass is what the healthy guards return.
	type shape struct {
		guardAt, handlerAt int
		pass, fold         bool
	}
	run := func(sh shape, metered bool) barrierRun {
		var r barrierRun
		hook := &recHook{}
		opts := Options{Protect: hook}
		// Each handler counts its own invocations on entry, so a panicking
		// one still counts as fired.
		r.fired = make([]int64, n+1)
		bs := make([]*Binding, n)
		for i := range bs {
			i := i
			bs[i] = &Binding{Tag: i,
				Guards: []Guard{{Fn: func(any, []any) bool {
					if i == sh.guardAt {
						panic("guard")
					}
					return sh.pass
				}}},
				Fn: func(any, []any) any {
					r.fired[i]++
					if i == sh.handlerAt {
						panic("handler")
					}
					return uint64(i)
				}}
		}
		def := &Binding{Tag: n, Fn: func(any, []any) any {
			r.fired[n]++
			if sh.handlerAt == n {
				panic("default")
			}
			return uint64(n)
		}}
		var resultFn ResultFn
		if sh.fold {
			resultFn = func(acc, res any, index int) any {
				r.folds = append(r.folds, index)
				sum, _ := acc.(uint64)
				return sum + res.(uint64)
			}
		}
		p := Compile(nil, 0, info(1, true), bs, resultFn, def, opts)
		want := "stencil[fold,guarded,barrier]"
		if metered {
			want = "stencil[fold,observed,barrier]"
		}
		if got := p.Executor(metered); got != want {
			t.Fatalf("executor %s, want %s", got, want)
		}
		var excess stripe.Counter
		r.out = p.Execute(&Env{CPU: meteredCPU(metered), FiredExcess: &excess}, []any{uint64(1)}, 0)
		r.total = 1 + excess.Load()
		r.faults = hook.calls
		return r
	}
	both := func(name string, sh shape) barrierRun {
		got, want := run(sh, false), run(sh, true)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: bare barrier %+v, metered barrier %+v", name, got, want)
		}
		return got
	}

	for pos := 0; pos < n; pos++ {
		// A handler panic: fired with no result, so its fold index is skipped
		// and the survivors keep theirs.
		r := both(fmt.Sprintf("handler %d panics, fold", pos), shape{guardAt: -1, handlerAt: pos, pass: true, fold: true})
		var folds []int
		sum := uint64(0)
		for i := 0; i < n; i++ {
			if i != pos {
				folds = append(folds, i)
				sum += uint64(i)
			}
		}
		if r.out.Fired != n || r.out.Result != sum || !reflect.DeepEqual(r.folds, folds) ||
			!reflect.DeepEqual(r.faults, []faultCall{{tag: pos}}) ||
			!reflect.DeepEqual(r.fired, []int64{1, 1, 1, 1, 0}) || r.total != n {
			t.Errorf("handler %d panics, fold: %+v", pos, r)
		}
		// Unmerged: the last survivor's result, ambiguous as without the panic.
		r = both(fmt.Sprintf("handler %d panics, no fold", pos), shape{guardAt: -1, handlerAt: pos, pass: true})
		last := uint64(n - 1)
		if pos == n-1 {
			last = n - 2
		}
		if r.out.Fired != n || !r.out.Ambiguous || r.out.Result != last {
			t.Errorf("handler %d panics, no fold: %+v", pos, r)
		}
		// A guard panic: the step is skipped and the fold indices close up.
		r = both(fmt.Sprintf("guard %d panics", pos), shape{guardAt: pos, handlerAt: -1, pass: true, fold: true})
		if r.out.Fired != n-1 || r.out.Result != sum || !reflect.DeepEqual(r.folds, []int{0, 1, 2}) ||
			!reflect.DeepEqual(r.faults, []faultCall{{guard: true, tag: pos}}) {
			t.Errorf("guard %d panics: %+v", pos, r)
		}
	}
	// Every step panics, one way or the other, then the default runs.
	r := both("guard 0 panics, rest fail, default", shape{guardAt: 0, handlerAt: -1})
	if r.out.Fired != 0 || !r.out.UsedDefault || r.out.Result != uint64(n) {
		t.Errorf("default after a guard panic: %+v", r)
	}
	// A panicking default handler: used, counted, no result.
	r = both("default panics", shape{guardAt: -1, handlerAt: n})
	if r.out != (Outcome{UsedDefault: true}) || !reflect.DeepEqual(r.fired, []int64{0, 0, 0, 0, 1}) ||
		r.total != 1 || !reflect.DeepEqual(r.faults, []faultCall{{tag: n}}) {
		t.Errorf("default panics: %+v", r)
	}
}

// TestBarrierLeavesOtherPanicsAlone: the barrier recovers only what the
// phase byte says is extension code. A hook that re-panics surfaces at the
// raise point, and so does a panic in the result handler, which reaches no
// hook. A hook that rejects the raise ends the walk at the guard: the later
// step does not run, the outcome carries the hook's error, and the raise's
// excess add takes back its one firing.
func TestBarrierLeavesOtherPanicsAlone(t *testing.T) {
	verdict := errors.New("guard mutated its arguments")
	for _, metered := range []bool{false, true} {
		var excess stripe.Counter
		raise := func(p *Plan) (out Outcome, val any) {
			defer func() { val = recover() }()
			return p.Execute(&Env{CPU: meteredCPU(metered), FiredExcess: &excess}, []any{uint64(1)}, 0), nil
		}
		later := 0
		bs := []*Binding{
			{Tag: 0, Guards: []Guard{{Fn: func(any, []any) bool { panic("monitor") }}}, Fn: func(any, []any) any { return nil }},
			{Tag: 1, Fn: countingHandler(&later, nil)},
		}
		hook := &recHook{repanic: verdict}
		p := Compile(nil, 0, info(1, false), bs, nil, nil, Options{Protect: hook})
		if _, got := raise(p); got != verdict {
			t.Errorf("metered=%v: raise panicked with %v, want the hook's re-panic", metered, got)
		}
		if !reflect.DeepEqual(hook.calls, []faultCall{{guard: true, tag: 0}}) {
			t.Errorf("metered=%v: hook calls %+v", metered, hook.calls)
		}

		hook = &recHook{reject: verdict}
		p = Compile(nil, 0, info(1, false), bs, nil, nil, Options{Protect: hook})
		out, got := raise(p)
		if got != nil || out.Rejection() != verdict || later != 0 || excess.Load() != -1 ||
			!reflect.DeepEqual(hook.calls, []faultCall{{guard: true, tag: 0}}) {
			t.Errorf("metered=%v: rejecting hook: %+v (rejection %v), panic %v, later step ran %d, excess %d, hook %+v",
				metered, out, out.Rejection(), got, later, excess.Load(), hook.calls)
		}

		hook = &recHook{}
		n := 0
		bs = []*Binding{{Tag: 0, Fn: countingHandler(&n, uint64(1))}, {Tag: 1, Fn: countingHandler(&n, uint64(2))}}
		p = Compile(nil, 0, info(1, true), bs, func(any, any, int) any { panic("fold") }, nil, Options{Protect: hook})
		if _, got := raise(p); got != "fold" || len(hook.calls) != 0 || n != 1 {
			t.Errorf("metered=%v: result-handler panic: raise panicked with %v, %d hook calls, %d handlers ran",
				metered, got, len(hook.calls), n)
		}
	}
}

// TestOutcomeFitsRegisters: Outcome stays at four fields. The compiler
// keeps a struct of at most four fields as SSA values; a fifth makes every
// Outcome a stack temporary, which took the bypass raise's lat_p05_ns from
// 21.6 to 38.7 ns (raise_hot, median of 8 pairs, worse in 8 of 8) while
// every tier slowed together, past the ratio gates' sight.
func TestOutcomeFitsRegisters(t *testing.T) {
	if n := reflect.TypeOf(Outcome{}).NumField(); n > 4 {
		t.Fatalf("Outcome has %d fields, want at most 4", n)
	}
}

// TestBarrierNestedAndSupersededFrames: a handler that raises the same
// event again runs the inner frame behind its own barrier, and a handler
// that supersedes the running plan (it uninstalled itself) and then panics
// is still captured against the plan the frame loaded, and the frame runs
// to its end on that plan.
func TestBarrierNestedAndSupersededFrames(t *testing.T) {
	for _, metered := range []bool{false, true} {
		hook := &recHook{}
		opts := Options{Protect: hook}
		var p *Plan
		env := &Env{CPU: meteredCPU(metered)}
		var inner Outcome
		g := Guard{Fn: func(any, []any) bool { return true }}
		bs := []*Binding{
			{Tag: 0, Guards: []Guard{g}, Fn: func(_ any, args []any) any {
				if args[0] == uint64(0) {
					inner = p.Execute(env, []any{uint64(1)}, 0)
				}
				return nil
			}},
			{Tag: 1, Guards: []Guard{g}, Fn: func(_ any, args []any) any { panic(args[0]) }},
			{Tag: 2, Guards: []Guard{g}, Fn: func(any, []any) any { return nil }},
		}
		p = Compile(nil, 0, info(1, false), bs, nil, nil, opts)
		outer := p.Execute(env, []any{uint64(0)}, 0)
		if inner.Fired != 3 || outer.Fired != 3 || !reflect.DeepEqual(hook.calls, []faultCall{{tag: 1}, {tag: 1}}) {
			t.Errorf("metered=%v: nested raise: inner %+v outer %+v hook %+v", metered, inner, outer, hook.calls)
		}

		hook.calls = nil
		var live atomic.Pointer[Plan]
		ran := 0
		survivor := &Binding{Tag: 1, Guards: []Guard{g}, Fn: countingHandler(&ran, nil)}
		quitter := &Binding{Tag: 0, Guards: []Guard{g}, Fn: func(any, []any) any {
			live.Store(Compile(nil, 0, info(1, false), []*Binding{survivor}, nil, nil, opts))
			panic("after uninstall")
		}}
		first := Compile(nil, 0, info(1, false), []*Binding{quitter, survivor}, nil, nil, opts)
		live.Store(first)
		out := first.Execute(env, []any{uint64(1)}, 0)
		if live.Load() == first || out.Fired != 2 || ran != 1 || !reflect.DeepEqual(hook.calls, []faultCall{{tag: 0}}) {
			t.Errorf("metered=%v: superseded frame: %+v, survivor ran %d, hook %+v",
				metered, out, ran, hook.calls)
		}
	}
}

// TestExecuteBatchStopsAtSupersededPlan: the bypass frame loop stops before
// the first frame that would run on a stale plan; the frame that superseded
// the plan runs to its end, and its result is the batch's.
func TestExecuteBatchStopsAtSupersededPlan(t *testing.T) {
	var live atomic.Pointer[Plan]
	var seen []any
	next := Compile(nil, 0, info(2, true), []*Binding{{Fn: countingHandler(new(int), nil)}}, nil, nil, Options{})
	p := Compile(nil, 0, info(2, true), []*Binding{{Fn: func(_ any, args []any) any {
		seen = append(seen, args[0])
		if args[0] == uint64(2) {
			live.Store(next)
		}
		return args[1]
	}}}, nil, nil, Options{})
	if !p.Batchable() {
		t.Fatalf("a lone unguarded binding is not Batchable: executor %s", p.Executor(false))
	}
	flat := []any{uint64(0), "a", uint64(1), "b", uint64(2), "c", uint64(3), "d"}
	live.Store(p)
	res, done := p.ExecuteBatch(flat, 2, 4, &live)
	if done != 3 || res != "c" || !reflect.DeepEqual(seen, []any{uint64(0), uint64(1), uint64(2)}) {
		t.Errorf("superseded at frame 2: done %d, result %v, frames run %v", done, res, seen)
	}
	seen = nil
	if res, done = p.ExecuteBatch(flat, 2, 4, nil); done != 4 || res != "d" || len(seen) != 4 {
		t.Errorf("no live cell: done %d, result %v, frames run %v", done, res, seen)
	}
}
