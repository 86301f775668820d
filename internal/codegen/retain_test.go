package codegen

import (
	"testing"
)

// Tests for Plan.RetainsArgs, the property the dispatcher's pooled
// argument frames rely on, and for the allocation-free execution of the
// synchronous unrolled loop.

func TestRetainsArgs(t *testing.T) {
	info := EventInfo{Name: "T", Arity: 1}
	sync := &Binding{Fn: func(any, []any) any { return nil }}
	async := &Binding{Fn: func(any, []any) any { return nil }, Async: true}
	eph := &Binding{Fn: func(any, []any) any { return nil }, Ephemeral: true}
	deadAsync := &Binding{
		Fn:     func(any, []any) any { return nil },
		Async:  true,
		Guards: []Guard{{Pred: False()}},
	}

	cases := []struct {
		name     string
		bindings []*Binding
		want     bool
	}{
		{"sync-only", []*Binding{sync, sync}, false},
		{"async", []*Binding{sync, async}, true},
		{"ephemeral", []*Binding{eph}, true},
		{"dead-async-eliminated", []*Binding{sync, deadAsync}, false},
		{"empty", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Compile(nil, 0, info, tc.bindings, nil, nil, Options{})
			if got := p.RetainsArgs(); got != tc.want {
				t.Fatalf("RetainsArgs() = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestExecuteSyncStepsZeroAllocs pins the direct-call structure of the
// unrolled loop: executing inline and out-of-line synchronous steps must
// not allocate (the old per-step invoker closure did).
func TestExecuteSyncStepsZeroAllocs(t *testing.T) {
	info := EventInfo{Name: "T", Arity: 1}
	env := &Env{}
	args := []any{uint64(1)}

	inline := Compile(nil, 0, info, []*Binding{
		{Guards: []Guard{{Pred: ArgEq(0, 1)}}, Inline: Nop()},
		{Guards: []Guard{{Pred: ArgEq(0, 2)}}, Inline: Nop()},
	}, nil, nil, Options{})
	if n := testing.AllocsPerRun(1000, func() { inline.Execute(env, args, 0) }); n != 0 {
		t.Errorf("inline plan Execute allocates %v/op, want 0", n)
	}

	outline := Compile(nil, 0, info, []*Binding{
		{Fn: func(any, []any) any { return nil }},
		{Fn: func(any, []any) any { return nil }},
	}, nil, nil, Options{})
	if n := testing.AllocsPerRun(1000, func() { outline.Execute(env, args, 0) }); n != 0 {
		t.Errorf("out-of-line plan Execute allocates %v/op, want 0", n)
	}

	direct := Compile(nil, 0, info, []*Binding{
		{Fn: func(any, []any) any { return nil }},
	}, nil, nil, Options{})
	if direct.Direct() == nil {
		t.Fatal("expected single-binding bypass")
	}
	if n := testing.AllocsPerRun(1000, func() { direct.Execute(env, args, 0) }); n != 0 {
		t.Errorf("bypass Execute allocates %v/op, want 0", n)
	}

	// A filter plan on the plain stencil, bare and behind the barrier (its
	// filter runs at a segment boundary), and the observed walk: metered
	// raises of a guarded plan and of a protected one (the barrier).
	guarded := []*Binding{
		{Guards: []Guard{{Pred: ArgEq(0, 1)}, {Fn: func(any, []any) bool { return true }}},
			Fn: func(any, []any) any { return nil }},
		{Guards: []Guard{{Pred: ArgEq(0, 2)}}, Inline: Nop()},
	}
	filtered := []*Binding{
		{Filter: true, Fn: func(_ any, args []any) any { args[0] = uint64(1); return nil }},
		guarded[0],
	}
	metered := &Env{CPU: meteredCPU(true)}
	for _, tc := range []struct {
		name string
		env  *Env
		p    *Plan
	}{
		{"filter", env, Compile(nil, 0, info, filtered, nil, nil, Options{})},
		{"protected filter", env, Compile(nil, 0, info, filtered, nil, nil, Options{Protect: &recHook{}})},
		{"metered guarded", metered, Compile(nil, 0, info, guarded, nil, nil, Options{})},
		{"metered protected", metered, Compile(nil, 0, info, guarded, nil, nil, Options{Protect: &recHook{}})},
	} {
		if n := testing.AllocsPerRun(1000, func() { tc.p.Execute(tc.env, args, 0) }); n != 0 {
			t.Errorf("%s plan (%s) Execute allocates %v/op, want 0", tc.name, tc.p.Executor(tc.env.CPU != nil), n)
		}
	}
}
