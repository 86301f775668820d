package codegen

import (
	"strings"
	"sync/atomic"
	"testing"

	"spin/internal/stripe"
	"spin/internal/vtime"
)

// nopFaultHook satisfies FaultHook for eligibility tests.
type nopFaultHook struct{}

func (nopFaultHook) HandlerPanic(any, any, []byte) {}
func (nopFaultHook) GuardPanic(any, any, []byte)   {}
func (nopFaultHook) SyncCost(any, vtime.Duration)  {}

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

// TestSpecializeEligibility is the executor inventory: which of the three
// bodies each plan shape runs, and whether the plan carries a guard index
// for it. Plan.Disassemble prints the same name.
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
			opts: Options{Protect: nopFaultHook{}}, want: "direct"},
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
			want: "general"},
		{shape: "async", arity: 1, bindings: guardedN(2, func(b *Binding) { b.Async = true }),
			want: "general"},
		{shape: "ephemeral", arity: 1, bindings: guardedN(2, func(b *Binding) { b.Ephemeral = true }),
			want: "general"},
		{shape: "fault policy on", arity: 1, bindings: guardedN(2, nil),
			opts: Options{Protect: nopFaultHook{}}, want: "general"},
		{shape: "indexed run", arity: 1, bindings: tree, want: "stencil[void,guarded]", runs: 1},
		{shape: "indexed run, EnableDecisionTree", arity: 1, bindings: tree,
			opts: Options{EnableDecisionTree: true}, want: "stencil[void,guarded]", runs: 1},
		{shape: "indexed run, metered", arity: 1, bindings: tree, metered: true,
			want: "general", runs: 1}, // the stencil's index; a metered raise scans
		{shape: "indexed run, fault policy on", arity: 1, bindings: tree,
			opts: Options{Protect: nopFaultHook{}}, want: "general"},
		{shape: "indexed run, fault policy on, EnableDecisionTree", arity: 1, bindings: tree,
			opts: Options{Protect: nopFaultHook{}, EnableDecisionTree: true}, want: "general", runs: 1},
		{shape: "DisableSpecialize", arity: 1, bindings: guardedN(2, nil),
			opts: Options{DisableSpecialize: true}, want: "general"},
		{shape: "metered", arity: 1, bindings: guardedN(2, nil), metered: true, want: "general"},
	} {
		p := Compile(info(tc.arity, tc.hasResult), tc.bindings, tc.resultFn, nil, tc.opts)
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
		if stencil := strings.HasPrefix(p.Executor(false), "stencil"); p.Specialized() != stencil {
			t.Errorf("%s: Specialized()=%v with executor %s", tc.shape, p.Specialized(), p.Executor(false))
		}
	}
	if gb := Compile(info(1, false), guardedN(1, nil), nil, nil, Options{}); !gb.GuardedBypass() {
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
	run := func(opts Options, args ...any) ([]string, Outcome) {
		p := Compile(info(1, true), bs, nil, nil, opts)
		fired = nil
		out := p.Execute(&Env{}, args, 0)
		return fired, out
	}
	for _, args := range [][]any{{uint64(80)}, {uint64(443)}, {uint64(7)}} {
		want, wantOut := run(Options{DisableSpecialize: true}, args...)
		got, gotOut := run(Options{}, args...)
		if len(got) != len(want) {
			t.Fatalf("args %v: fired %v, general executor %v", args, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("args %v: order %v, general executor %v", args, got, want)
			}
		}
		if gotOut != wantOut {
			t.Fatalf("args %v: outcome %+v, general executor %+v", args, gotOut, wantOut)
		}
	}
}

func TestSpecializedDefaultHandler(t *testing.T) {
	n := 0
	d := &Binding{Fn: func(any, []any) any { return "default" }}
	p := Compile(info(1, true), guardedBindings(1, &n), nil, d, Options{})
	if !p.Specialized() {
		t.Fatal("plan with default handler should still specialize")
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
	p2 := Compile(info(1, true), bs, nil, d, Options{})
	var total stripe.Counter
	out = p2.Execute(&Env{FiredTotal: &total}, []any{uint64(1)}, 0)
	if out.Fired != 0 || !out.UsedDefault || out.Result != "default" {
		t.Fatalf("default not applied: %+v", out)
	}
	if total.Load() != 1 {
		t.Fatalf("batched total %d after default firing, want 1", total.Load())
	}
}

// TestMeteredChargeParity pins the zero-cost-off contract for metering:
// a metered raise must charge the identical virtual-time sequence whether
// or not the plan carries a specialized executor, because metered raises
// always run the interpreter.
func TestMeteredChargeParity(t *testing.T) {
	n := 0
	args := []any{uint64(1)}
	costs := make(map[bool]vtime.Duration)
	for _, disable := range []bool{false, true} {
		p := Compile(info(1, false), guardedBindings(3, &n), nil, nil,
			Options{DisableSpecialize: disable})
		if p.Specialized() == disable {
			t.Fatalf("DisableSpecialize=%v: Specialized()=%v", disable, p.Specialized())
		}
		costs[disable] = meteredExec(p, args)
	}
	if costs[false] != costs[true] {
		t.Fatalf("metered cost diverges with specialization: on=%v off=%v",
			costs[false], costs[true])
	}
}

// TestSpecializedStatsFallback pins the per-fire OnFire contract for
// direct codegen users: without Env.FiredTotal the specialized executor
// reports each firing through OnFire exactly like the interpreter.
func TestSpecializedStatsFallback(t *testing.T) {
	n := 0
	bs := guardedBindings(3, &n)
	for i, b := range bs {
		b.Tag = i
	}
	p := Compile(info(1, false), bs, nil, nil, Options{})
	if !p.Specialized() {
		t.Fatal("expected specialized plan")
	}
	var tags []any
	p.Execute(&Env{OnFire: func(tag any) { tags = append(tags, tag) }}, []any{uint64(1)}, 0)
	if len(tags) != 3 || tags[0] != 0 || tags[1] != 1 || tags[2] != 2 {
		t.Fatalf("OnFire fallback tags: %v", tags)
	}
}
