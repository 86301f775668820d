package codegen

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"spin/internal/admit"
	"spin/internal/stripe"
	"spin/internal/trace"
	"spin/internal/vtime"
)

func countingHandler(count *int, result any) HandlerFn {
	return func(closure any, args []any) any {
		*count++
		return result
	}
}

func info(arity int, hasResult bool) EventInfo {
	return EventInfo{Name: "Test.Event", Arity: arity, HasResult: hasResult}
}

func exec(p *Plan, args ...any) Outcome {
	return p.Execute(&Env{}, args, 0)
}

func TestSingleBindingBypass(t *testing.T) {
	n := 0
	b := &Binding{Fn: countingHandler(&n, nil)}
	p := Compile(nil, 0, info(0, false), []*Binding{b}, nil, nil, Options{})
	if p.Direct() == nil {
		t.Fatal("single unguarded binding must compile to a direct call")
	}
	out := exec(p)
	if n != 1 || out.Fired != 1 {
		t.Fatalf("n=%d fired=%d", n, out.Fired)
	}
}

func TestNoBypassWithGuardsOrProperties(t *testing.T) {
	n := 0
	mk := func(mut func(*Binding)) *Plan {
		b := &Binding{Fn: countingHandler(&n, nil)}
		mut(b)
		return Compile(nil, 0, info(0, false), []*Binding{b}, nil, nil, Options{})
	}
	if mk(func(b *Binding) { b.Guards = []Guard{{Pred: ArgEq(0, 1)}} }).Direct() != nil {
		t.Error("guarded binding bypassed")
	}
	if mk(func(b *Binding) { b.Async = true }).Direct() != nil {
		t.Error("async binding bypassed")
	}
	if mk(func(b *Binding) { b.Ephemeral = true }).Direct() != nil {
		t.Error("ephemeral binding bypassed")
	}
	if mk(func(b *Binding) { b.Filter = true }).Direct() != nil {
		t.Error("filter binding bypassed")
	}
	// Default or result handler present: the routine must stay.
	b := &Binding{Fn: countingHandler(&n, nil)}
	d := &Binding{Fn: countingHandler(&n, nil)}
	if Compile(nil, 0, info(0, false), []*Binding{b}, nil, d, Options{}).Direct() != nil {
		t.Error("bypassed despite default handler")
	}
}

func TestGuardsFilterHandlers(t *testing.T) {
	fired := []string{}
	mark := func(name string) HandlerFn {
		return func(any, []any) any { fired = append(fired, name); return nil }
	}
	bs := []*Binding{
		{Guards: []Guard{{Pred: ArgEq(0, 80)}}, Fn: mark("http")},
		{Guards: []Guard{{Pred: ArgEq(0, 443)}}, Fn: mark("https")},
		{Fn: mark("all")},
	}
	p := Compile(nil, 0, info(1, false), bs, nil, nil, Options{})
	out := p.Execute(&Env{}, []any{uint64(443)}, 0)
	if out.Fired != 2 {
		t.Fatalf("fired = %d, want 2", out.Fired)
	}
	if len(fired) != 2 || fired[0] != "https" || fired[1] != "all" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestIndirectGuardCalled(t *testing.T) {
	calls := 0
	g := Guard{Fn: func(closure any, args []any) bool {
		calls++
		if closure != "clo" {
			t.Errorf("closure = %v", closure)
		}
		return false
	}, Closure: "clo"}
	n := 0
	bs := []*Binding{{Guards: []Guard{g}, Fn: countingHandler(&n, nil)}, {Fn: countingHandler(&n, nil)}}
	p := Compile(nil, 0, info(0, false), bs, nil, nil, Options{})
	out := exec(p)
	if calls != 1 || n != 1 || out.Fired != 1 {
		t.Fatalf("calls=%d n=%d fired=%d", calls, n, out.Fired)
	}
}

func TestPeepholeElidesTrueGuards(t *testing.T) {
	n := 0
	b := &Binding{
		Guards: []Guard{{Pred: And(True(), True())}},
		Fn:     countingHandler(&n, nil),
	}
	p := Compile(nil, 0, info(0, false), []*Binding{b}, nil, nil, Options{})
	// After peephole the binding has no guards and becomes the bypass.
	if p.Direct() == nil {
		t.Fatal("constant-true guard not elided")
	}
}

func TestPeepholeRemovesDeadBindings(t *testing.T) {
	n := 0
	bs := []*Binding{
		{Guards: []Guard{{Pred: And(False(), ArgEq(0, 1))}}, Fn: countingHandler(&n, nil)},
		{Fn: countingHandler(&n, nil)},
	}
	p := Compile(nil, 0, info(0, false), bs, nil, nil, Options{})
	if p.Steps() != 1 {
		t.Fatalf("dead binding survived: %d live", p.Steps())
	}
	if p.Direct() == nil {
		t.Fatal("surviving binding should become the bypass")
	}
}

func TestResultSingleHandlerMimicsProcedureCall(t *testing.T) {
	b := &Binding{Fn: func(any, []any) any { return 42 }}
	p := Compile(nil, 0, info(0, true), []*Binding{b}, nil, nil, Options{})
	out := exec(p)
	if out.Result != 42 || out.Ambiguous || out.Fired != 1 {
		t.Fatalf("out = %+v", out)
	}
}

func TestResultHandlerFoldsAll(t *testing.T) {
	// The paper's VM.PageFault example: result handler returns the
	// logical OR of all handler results.
	or := func(acc, r any, i int) any {
		b, _ := r.(bool)
		a, _ := acc.(bool)
		return a || b
	}
	bs := []*Binding{
		{Fn: func(any, []any) any { return false }},
		{Fn: func(any, []any) any { return true }},
		{Fn: func(any, []any) any { return false }},
	}
	p := Compile(nil, 0, info(0, true), bs, or, nil, Options{})
	out := exec(p)
	if out.Result != true || out.Ambiguous {
		t.Fatalf("out = %+v", out)
	}
	if out.Fired != 3 {
		t.Fatalf("fired = %d", out.Fired)
	}
}

func TestAmbiguousResultFlagged(t *testing.T) {
	bs := []*Binding{
		{Fn: func(any, []any) any { return 1 }},
		{Fn: func(any, []any) any { return 2 }},
	}
	p := Compile(nil, 0, info(0, true), bs, nil, nil, Options{})
	out := exec(p)
	if !out.Ambiguous {
		t.Fatal("two results without a result handler must be ambiguous")
	}
	if out.Result != 2 {
		t.Fatalf("ambiguous result should hold the last value, got %v", out.Result)
	}
}

func TestDefaultHandlerRunsOnlyWhenNothingFires(t *testing.T) {
	defCalls := 0
	def := &Binding{Fn: countingHandler(&defCalls, "default")}
	n := 0
	guarded := &Binding{
		Guards: []Guard{{Pred: ArgEq(0, 1)}},
		Fn:     countingHandler(&n, "real"),
	}
	p := Compile(nil, 0, info(1, true), []*Binding{guarded}, nil, def, Options{})

	out := p.Execute(&Env{}, []any{uint64(9)}, 0)
	if !out.UsedDefault || out.Result != "default" || defCalls != 1 {
		t.Fatalf("default path broken: %+v calls=%d", out, defCalls)
	}
	out = p.Execute(&Env{}, []any{uint64(1)}, 0)
	if out.UsedDefault || out.Result != "real" || defCalls != 1 {
		t.Fatalf("default ran despite a firing handler: %+v", out)
	}
}

func TestNoHandlerNoDefault(t *testing.T) {
	p := Compile(nil, 0, info(0, true), nil, nil, nil, Options{})
	out := exec(p)
	if out.Fired != 0 || out.UsedDefault {
		t.Fatalf("out = %+v", out)
	}
}

func TestFiltersMutateDownstreamArgs(t *testing.T) {
	// The paper's MS-DOS-over-UNIX name conversion: a filter rewrites an
	// argument, later handlers see the new value.
	var seen string
	filter := &Binding{
		Filter: true,
		Fn: func(closure any, args []any) any {
			args[0] = strings.ToLower(args[0].(string))
			return nil
		},
	}
	reader := &Binding{Fn: func(closure any, args []any) any {
		seen = args[0].(string)
		return nil
	}}
	p := Compile(nil, 0, info(1, false), []*Binding{filter, reader}, nil, nil, Options{})
	args := []any{"README.TXT"}
	p.Execute(&Env{}, args, 0)
	if seen != "readme.txt" {
		t.Fatalf("downstream handler saw %q", seen)
	}
}

func TestAsyncHandlerSpawns(t *testing.T) {
	spawned := 0
	ran := 0
	spawn := func(q *admit.Queue, _ any, _ int, invoke func(context.Context) any) {
		if q != nil {
			t.Error("plan without an admission queue handed one to Async")
		}
		spawned++
		invoke(context.Background())
	}
	bs := []*Binding{
		{Async: true, Fn: func(any, []any) any { ran++; return "dropped" }},
		{Fn: func(any, []any) any { return "sync" }},
	}
	p := Compile(nil, 0, info(0, true), bs, nil, nil, Options{Async: spawn})
	out := p.Execute(&Env{}, nil, 0)
	if spawned != 1 || ran != 1 {
		t.Fatalf("spawned=%d ran=%d", spawned, ran)
	}
	if out.Fired != 2 {
		t.Fatalf("fired = %d", out.Fired)
	}
	if out.Result != "sync" || out.Ambiguous {
		t.Fatalf("async result leaked into the merge: %+v", out)
	}
}

func TestEphemeralHandlerSupervised(t *testing.T) {
	term := 0
	supervise := func(tag any, invoke func(context.Context) any) (any, bool) {
		term++
		if tag != "tag" {
			t.Errorf("tag = %v", tag)
		}
		return nil, false // simulate termination
	}
	live := &Binding{Fn: func(any, []any) any { return true }}
	eph := &Binding{Ephemeral: true, Tag: "tag", Fn: func(any, []any) any { return false }}
	p := Compile(nil, 0, info(0, true), []*Binding{eph, live}, nil, nil, Options{RunEphemeral: supervise})
	out := p.Execute(&Env{}, nil, 0)
	if term != 1 {
		t.Fatalf("supervisor calls = %d", term)
	}
	// The terminated handler fired but contributed no result.
	if out.Fired != 2 || out.Result != true || out.Ambiguous {
		t.Fatalf("out = %+v", out)
	}
}

// TestFireCountsReportBindings pins the one statistics protocol on every
// executor: the raise adds its firings beyond one, filters and the default
// handler included, to FiredExcess at most once, so its frame plus the
// excess are exactly the handlers that ran (each counts its own
// invocations); a caller without a FiredExcess runs the same handlers.
func TestFireCountsReportBindings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    Options
		filter  bool
		metered bool
	}{
		{name: "stencil"},
		{name: "sampled", opts: Options{Trace: trace.New(trace.Config{})}},
		{name: "metered", metered: true},
		{name: "filter", filter: true},
	} {
		var counts [3]int64
		var never atomic.Uint64
		count := func(i int) HandlerFn { return func(any, []any) any { counts[i]++; return nil } }
		bs := []*Binding{
			{Fn: count(0), Filter: tc.filter},
			{Guards: []Guard{{Pred: GlobalEq(&never, 1)}}, Fn: count(1)},
			{Fn: count(2)},
		}
		p := Compile(nil, 0, info(0, false), bs, nil, nil, tc.opts)
		var excess stripe.Counter
		env := &Env{FiredExcess: &excess}
		if tc.metered {
			env.CPU = vtime.NewCPU(&vtime.Clock{}, vtime.AlphaModel())
		}
		p.Execute(env, nil, 0)
		p.Execute(&Env{CPU: env.CPU}, nil, 0)
		if counts != [3]int64{2, 0, 2} {
			t.Errorf("%s (%s): invocations %v, want [2 0 2]", tc.name, p.Executor(tc.metered), counts)
		}
		if got := 1 + excess.Load(); got != 2 {
			t.Errorf("%s (%s): 1 frame + FiredExcess = %d, want 2", tc.name, p.Executor(tc.metered), got)
		}
	}
	// The default handler fires, and counts, only when nothing else does.
	var defCount int64
	var excess stripe.Counter
	def := &Binding{Fn: func(any, []any) any { defCount++; return nil }}
	guarded := &Binding{Guards: []Guard{{Pred: ArgEq(0, 1)}}, Fn: func(any, []any) any { return nil }}
	for _, cpu := range []*vtime.CPU{nil, vtime.NewCPU(&vtime.Clock{}, vtime.AlphaModel())} {
		p := Compile(nil, 0, info(1, false), []*Binding{guarded}, nil, def, Options{})
		p.Execute(&Env{CPU: cpu, FiredExcess: &excess}, []any{uint64(2)}, 0)
		p.Execute(&Env{CPU: cpu, FiredExcess: &excess}, []any{uint64(1)}, 0)
	}
	if got := 4 + excess.Load(); defCount != 2 || got != 4 {
		t.Errorf("default handler: invocations %d, 4 frames + FiredExcess = %d, want 2 and 4", defCount, got)
	}
}

func TestInlinePlanDetection(t *testing.T) {
	var cell atomic.Uint64
	inline := &Binding{
		Guards: []Guard{{Pred: GlobalEq(&cell, 0)}},
		Inline: Nop(),
		Fn:     func(any, []any) any { return nil },
	}
	p := Compile(nil, 0, info(0, false), []*Binding{inline, inline}, nil, nil, Options{})
	if !p.allInline {
		t.Fatal("plan with only inlinable bindings must be fully inline")
	}
	opaque := &Binding{Fn: func(any, []any) any { return nil }}
	p2 := Compile(nil, 0, info(0, false), []*Binding{inline, opaque}, nil, nil, Options{})
	if p2.allInline {
		t.Fatal("opaque handler must break full inlining")
	}
}

func TestInlineBodiesExecuteInline(t *testing.T) {
	var counter atomic.Uint64
	b := &Binding{Inline: AddWord(&counter, 1), Fn: func(any, []any) any {
		t.Error("out-of-line handler called for inline body")
		return nil
	}}
	b2 := &Binding{Inline: AddWord(&counter, 10), Fn: nil}
	p := Compile(nil, 0, info(0, false), []*Binding{b, b2}, nil, nil, Options{})
	p.Execute(&Env{}, nil, 0)
	if counter.Load() != 11 {
		t.Fatalf("counter = %d", counter.Load())
	}
}

// Virtual-time cost tests: the generated code's charge structure is what
// regenerates Table 1, so it is pinned here.

func meteredExec(p *Plan, args []any) vtime.Duration {
	var clock vtime.Clock
	cpu := vtime.NewCPU(&clock, vtime.AlphaModel())
	p.Execute(&Env{CPU: cpu}, args, 0)
	return vtime.Duration(clock.Now())
}

func TestCostBypassIsDirectCall(t *testing.T) {
	b := &Binding{Fn: func(any, []any) any { return nil }}
	p := Compile(nil, 0, info(0, false), []*Binding{b}, nil, nil, Options{})
	got := meteredExec(p, nil)
	if got != vtime.Micros(0.10) {
		t.Fatalf("bypass cost = %v, want 0.10us", got)
	}
}

func TestCostNoInlineMatchesTable1(t *testing.T) {
	model := vtime.AlphaModel()
	mkGuard := func() Guard {
		return Guard{Fn: func(any, []any) bool { return true }}
	}
	for _, tc := range []struct {
		args, handlers    int
		wantLow, wantHigh float64 // paper Table 1 value +-15%
	}{
		{0, 1, 0.31, 0.43},  // paper 0.37
		{0, 50, 9.9, 13.5},  // paper 11.69
		{5, 1, 0.82, 1.12},  // paper 0.97
		{5, 50, 12.3, 16.6}, // paper 14.45
	} {
		bs := make([]*Binding, tc.handlers)
		for i := range bs {
			bs[i] = &Binding{Guards: []Guard{mkGuard()}, Fn: func(any, []any) any { return nil }}
		}
		p := Compile(nil, 0, info(tc.args, false), bs, nil, nil, Options{})
		args := make([]any, tc.args)
		for i := range args {
			args[i] = uint64(i)
		}
		var clock vtime.Clock
		cpu := vtime.NewCPU(&clock, model)
		p.Execute(&Env{CPU: cpu}, args, 0)
		us := vtime.InMicros(vtime.Duration(clock.Now()))
		if us < tc.wantLow || us > tc.wantHigh {
			t.Errorf("no-inline args=%d handlers=%d: %.3fus outside [%.2f,%.2f]",
				tc.args, tc.handlers, us, tc.wantLow, tc.wantHigh)
		}
	}
}

func TestCostInlineMatchesTable1(t *testing.T) {
	var cell atomic.Uint64
	for _, tc := range []struct {
		args, handlers    int
		wantLow, wantHigh float64
	}{
		{0, 1, 0.20, 0.27}, // paper 0.23
		{0, 50, 2.1, 2.9},  // paper 2.48
		{5, 1, 0.35, 0.49}, // paper 0.42
		{5, 50, 4.8, 6.5},  // paper 5.65
	} {
		bs := make([]*Binding, tc.handlers)
		for i := range bs {
			bs[i] = &Binding{
				Guards: []Guard{{Pred: GlobalEq(&cell, 0)}},
				Inline: Nop(),
			}
		}
		p := Compile(nil, 0, info(tc.args, false), bs, nil, nil, Options{})
		if !p.allInline {
			t.Fatal("expected fully inline plan")
		}
		args := make([]any, tc.args)
		for i := range args {
			args[i] = uint64(i)
		}
		us := vtime.InMicros(meteredExec(p, args))
		if us < tc.wantLow || us > tc.wantHigh {
			t.Errorf("inline args=%d handlers=%d: %.3fus outside [%.2f,%.2f]",
				tc.args, tc.handlers, us, tc.wantLow, tc.wantHigh)
		}
	}
}

func TestDisassemble(t *testing.T) {
	var cell atomic.Uint64
	bs := []*Binding{
		{Guards: []Guard{{Pred: GlobalEq(&cell, 0)}}, Inline: Nop()},
		{Fn: func(any, []any) any { return nil }, Async: true},
		{Fn: func(any, []any) any { return nil }, Ephemeral: true, Filter: true},
	}
	def := &Binding{Fn: func(any, []any) any { return nil }}
	p := Compile(nil, 0, info(2, true), bs, func(a, r any, i int) any { return r }, def, Options{})
	d := p.Disassemble()
	for _, want := range []string{"step 0", "[inline]", "async", "ephemeral", "filter", "default handler", "result handler"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
	direct := Compile(nil, 0, info(0, false), []*Binding{{Fn: func(any, []any) any { return nil }}}, nil, nil, Options{})
	if !strings.Contains(direct.Disassemble(), "direct call") {
		t.Error("bypass plan disassembly missing direct call marker")
	}
}
