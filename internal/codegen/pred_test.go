package codegen

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPredConstants(t *testing.T) {
	if !True().Eval(nil) {
		t.Error("True() must pass")
	}
	if False().Eval(nil) {
		t.Error("False() must fail")
	}
}

func TestPredGlobal(t *testing.T) {
	var cell atomic.Uint64
	cell.Store(7)
	if !GlobalEq(&cell, 7).Eval(nil) {
		t.Error("GlobalEq miss")
	}
	if GlobalEq(&cell, 8).Eval(nil) {
		t.Error("GlobalEq false positive")
	}
	if !GlobalNe(&cell, 8).Eval(nil) {
		t.Error("GlobalNe miss")
	}
	if GlobalNe(&cell, 7).Eval(nil) {
		t.Error("GlobalNe false positive")
	}
	// Nil cells must evaluate false, not crash: guards are untrusted.
	if (&Pred{Op: PredGlobalEq}).Eval(nil) {
		t.Error("nil cell evaluated true")
	}
}

func TestPredArgs(t *testing.T) {
	args := []any{uint64(80), 443, "tcp"}
	if !ArgEq(0, 80).Eval(args) || ArgEq(0, 81).Eval(args) {
		t.Error("ArgEq broken")
	}
	if !ArgEq(1, 443).Eval(args) {
		t.Error("ArgEq must handle int args")
	}
	if !ArgNe(0, 81).Eval(args) || ArgNe(0, 80).Eval(args) {
		t.Error("ArgNe broken")
	}
	if !ArgLt(0, 81).Eval(args) || ArgLt(0, 80).Eval(args) {
		t.Error("ArgLt broken")
	}
	// Non-word and out-of-range arguments evaluate false, never panic.
	if ArgEq(2, 0).Eval(args) {
		t.Error("string arg treated as word")
	}
	if ArgEq(9, 0).Eval(args) || ArgEq(-1, 0).Eval(args) {
		t.Error("out-of-range arg evaluated true")
	}
}

func TestPredBoolean(t *testing.T) {
	args := []any{uint64(1)}
	tr, fa := ArgEq(0, 1), ArgEq(0, 2)
	if !And(tr, tr).Eval(args) || And(tr, fa).Eval(args) {
		t.Error("And broken")
	}
	if !Or(fa, tr).Eval(args) || Or(fa, fa).Eval(args) {
		t.Error("Or broken")
	}
	if !Not(fa).Eval(args) || Not(tr).Eval(args) {
		t.Error("Not broken")
	}
}

func TestAsWord(t *testing.T) {
	good := []any{uint64(1), int(1), uint(1), int64(1), int32(1), uint32(1),
		int16(1), uint16(1), int8(1), uint8(1), uintptr(1)}
	for _, v := range good {
		if w, ok := asWord(v); !ok || w != 1 {
			t.Errorf("AsWord(%T) = %v,%v", v, w, ok)
		}
	}
	for _, v := range []any{"x", 3.14, nil, struct{}{}} {
		if _, ok := asWord(v); ok {
			t.Errorf("AsWord(%T) accepted", v)
		}
	}
}

func TestSimplifyFoldsConstants(t *testing.T) {
	x := ArgEq(0, 1)
	cases := []struct {
		in   *Pred
		want *Pred
	}{
		{And(True(), x), x},
		{And(x, True()), x},
		{And(False(), x), False()},
		{And(x, False()), False()},
		{Or(True(), x), True()},
		{Or(x, True()), True()},
		{Or(False(), x), x},
		{Or(x, False()), x},
		{Not(True()), False()},
		{Not(False()), True()},
		{Not(Not(x)), x},
		{And(True(), And(True(), x)), x},
		{x, x},
	}
	for i, c := range cases {
		got := c.in.simplify()
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("case %d: simplify(%s) = %s, want %s", i, c.in, got, c.want)
		}
	}
	var nilPred *Pred
	if nilPred.simplify() != nil {
		t.Error("nil simplify must return nil")
	}
}

// Property: simplification never changes a predicate's value on random
// word-argument vectors.
func TestSimplifyEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var gen func(depth int) *Pred
	gen = func(depth int) *Pred {
		if depth == 0 {
			switch rng.Intn(4) {
			case 0:
				return True()
			case 1:
				return False()
			case 2:
				return ArgEq(rng.Intn(3), uint64(rng.Intn(3)))
			default:
				return ArgLt(rng.Intn(3), uint64(rng.Intn(4)))
			}
		}
		switch rng.Intn(3) {
		case 0:
			return And(gen(depth-1), gen(depth-1))
		case 1:
			return Or(gen(depth-1), gen(depth-1))
		default:
			return Not(gen(depth - 1))
		}
	}
	for trial := 0; trial < 200; trial++ {
		p := gen(rng.Intn(4) + 1)
		s := p.simplify()
		args := []any{uint64(rng.Intn(3)), uint64(rng.Intn(3)), uint64(rng.Intn(3))}
		if p.Eval(args) != s.Eval(args) {
			t.Fatalf("simplification changed semantics: %s vs %s on %v", p, s, args)
		}
	}
}

func TestPredString(t *testing.T) {
	var cell atomic.Uint64
	preds := []*Pred{True(), False(), GlobalEq(&cell, 1), GlobalNe(&cell, 1),
		ArgEq(0, 2), ArgNe(1, 3), ArgLt(2, 4), And(True(), False()),
		Or(True(), False()), Not(True()), nil}
	for _, p := range preds {
		if p.String() == "" {
			t.Errorf("empty String for %#v", p)
		}
	}
}

func TestBodyOps(t *testing.T) {
	if Nop().Run(nil) != nil {
		t.Error("Nop produced a result")
	}
	if got := ReturnConst(42).Run(nil); got != 42 {
		t.Errorf("ReturnConst = %v", got)
	}
	var cell atomic.Uint64
	b := AddWord(&cell, 3)
	if b.Run(nil) != nil {
		t.Error("AddWord produced a result")
	}
	b.Run(nil)
	if cell.Load() != 6 {
		t.Errorf("cell = %d, want 6", cell.Load())
	}
	if got := ReturnArg(1).Run([]any{"a", "b"}); got != "b" {
		t.Errorf("ReturnArg = %v", got)
	}
	if ReturnArg(5).Run([]any{"a"}) != nil {
		t.Error("out-of-range ReturnArg must produce nil")
	}
	if (&Body{Op: BodyAddWord}).Run(nil) != nil {
		t.Error("nil-cell AddWord must be inert")
	}
}

func TestBodyString(t *testing.T) {
	var cell atomic.Uint64
	for _, b := range []*Body{Nop(), ReturnConst(1), AddWord(&cell, 1), ReturnArg(0), nil} {
		if b.String() == "" {
			t.Errorf("empty String for %#v", b)
		}
	}
}

// Property: asWord round-trips any uint64 passed through the arg vector.
func TestAsWordProperty(t *testing.T) {
	f := func(w uint64) bool {
		got, ok := asWord(any(w))
		return ok && got == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
