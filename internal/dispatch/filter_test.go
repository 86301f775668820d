package dispatch

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"spin/internal/codegen"
	"spin/internal/fault"
	"spin/internal/rtti"
	"spin/internal/vtime"
)

// Filters (§2.3 "Passing arguments"): a filter rewrites the arguments the
// steps behind it see, and never the raiser's.

// installIncFilter installs, first on e, a filter adding one to the word in
// argument 0.
func installIncFilter(t *testing.T, e *Event) {
	t.Helper()
	sig := e.Signature()
	proc := &rtti.Proc{Name: "Inc", Module: testModule,
		Sig: rtti.Signature{Args: sig.Args, ByRef: make([]bool, len(sig.Args)), Result: sig.Result}}
	proc.Sig.ByRef[0] = true
	if _, err := e.Install(Handler{Proc: proc, Fn: func(_ any, args []any) any {
		args[0] = args[0].(uint64) + 1
		return nil
	}}, AsFilter(), First()); err != nil {
		t.Fatal(err)
	}
}

// TestRaiseFilterLeavesCallerArgs: Raise and RaiseReport handed the
// raiser's own slice run the filter on a private copy; the handler behind
// the filter sees the rewrite, the slice does not.
func TestRaiseFilterLeavesCallerArgs(t *testing.T) {
	for _, metered := range []bool{false, true} {
		var opts []Option
		if metered {
			opts = append(opts, WithCPU(vtime.NewCPU(&vtime.Clock{}, vtime.AlphaModel())))
		}
		e := mustDefine(t, New(opts...), "M.P", rtti.Sig(nil, rtti.Word))
		installIncFilter(t, e)
		var seen []any
		if _, err := e.Install(handler(voidProc("H", rtti.Word), func(_ any, args []any) any {
			seen = append(seen, args[0])
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		args := []any{uint64(5)}
		if _, err := e.Raise(args...); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RaiseReport(args...); err != nil {
			t.Fatal(err)
		}
		if args[0] != uint64(5) || !reflect.DeepEqual(seen, []any{uint64(6), uint64(6)}) {
			t.Errorf("metered=%v: the raiser's slice reads %v and the handler saw %v, want [5] and [6 6]",
				metered, args, seen)
		}
	}
}

// TestRaiseBatchFilterLeavesCallerFrames: RaiseBatch1 borrows flat; a
// filter rewrites private copies of its frames, on the batch loop and on
// a metered dispatcher's loop of single raises alike.
func TestRaiseBatchFilterLeavesCallerFrames(t *testing.T) {
	for _, metered := range []bool{false, true} {
		var opts []Option
		if metered {
			opts = append(opts, WithCPU(vtime.NewCPU(&vtime.Clock{}, vtime.AlphaModel())))
		}
		e := mustDefine(t, New(opts...), "M.P", rtti.Sig(nil, rtti.Word))
		installIncFilter(t, e)
		var seen []any
		if _, err := e.Install(handler(voidProc("H", rtti.Word), func(_ any, args []any) any {
			seen = append(seen, args[0])
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		flat := []any{uint64(5), uint64(9)}
		if out := e.RaiseBatch1(flat); out.Raised != 2 || out.Err() != nil {
			t.Fatalf("metered=%v: batch %+v", metered, out)
		}
		if !reflect.DeepEqual(flat, []any{uint64(5), uint64(9)}) || !reflect.DeepEqual(seen, []any{uint64(6), uint64(10)}) {
			t.Errorf("metered=%v: the caller's frames read %v and the handler saw %v, want [5 9] and [6 10]",
				metered, flat, seen)
		}
	}
}

// TestFilterPlainMatchesObserved is the boundary-step differential: the
// same plan raised unmetered (the plain stencil) and metered (the observed
// walk), bare and behind the fault barrier, must agree on what every step
// saw, in order, on the fold, on ErrNoHandler when only filters fire, and
// on Stats().Fired, which counts the filters. Both walks run filter, async
// and ephemeral steps at segment boundaries. The plan puts a filter ahead
// of an indexed run on the argument it rewrites, and behind the run an
// async step whose equality guard would have joined it, a guarded filter,
// an ephemeral step whose result folds, and the handler whose guard reads
// the filter's rewrite. The async step runs inline (the spawner) and the
// ephemeral one before its raise returns, so the log has one order.
func TestFilterPlainMatchesObserved(t *testing.T) {
	type run struct {
		log     []string // each step's name and the arguments it saw
		results []string // each raise's result and error
		fired   int64
	}
	raises := [][2]uint64{{0, 0}, {2, 9}, {9, 1}, {2, 3}, {3, 3}}
	do := func(metered, protect bool) run {
		opts := []Option{syncSpawner()}
		if metered {
			opts = append(opts, WithCPU(vtime.NewCPU(&vtime.Clock{}, vtime.AlphaModel())))
		}
		if protect {
			opts = append(opts, WithFaultPolicy(fault.Policy{Budget: 100, Backoff: time.Hour}))
		}
		var r run
		e := mustDefine(t, New(opts...), "M.F", rtti.Sig(rtti.Word, rtti.Word, rtti.Word))
		if err := e.SetResultHandler(func(acc, res any, index int) any {
			r.log = append(r.log, fmt.Sprintf("fold #%d %v", index, res))
			sum, _ := acc.(uint64)
			return sum + res.(uint64)
		}); err != nil {
			t.Fatal(err)
		}
		byRef := rtti.Signature{Args: []rtti.Type{rtti.Word, rtti.Word}, ByRef: []bool{true, true}, Result: rtti.Word}
		install := func(name string, kind InstallOption, res uint64, rewrite func([]any), guards ...Guard) {
			proc := resultProc(name, rtti.Word, rtti.Word, rtti.Word)
			opts := []InstallOption{Last()}
			switch name[0] {
			case 'F':
				proc = &rtti.Proc{Name: name, Module: testModule, Sig: byRef}
			case 'E':
				proc.Ephemeral = true
			}
			if kind != nil {
				opts = append(opts, kind)
			}
			for _, g := range guards {
				opts = append(opts, WithGuard(g))
			}
			if _, err := e.Install(Handler{Proc: proc, Fn: func(_ any, args []any) any {
				r.log = append(r.log, fmt.Sprint(name, args))
				if rewrite != nil {
					rewrite(args)
				}
				return res
			}}, opts...); err != nil {
				t.Fatal(err)
			}
		}
		install("F1", AsFilter(), 0, func(args []any) { args[0] = args[0].(uint64) + 1 })
		for k := uint64(1); k <= 4; k++ {
			install(fmt.Sprint("R", k), nil, 10*k, nil, Guard{Pred: codegen.ArgEq(0, k)})
		}
		install("A", Async(), 1000, nil, Guard{Pred: codegen.ArgEq(0, 3)})
		install("F2", AsFilter(), 0, func(args []any) { args[1] = args[0] },
			Guard{Pred: codegen.ArgLt(1, 5)},
			Guard{Proc: guardProc("Odd", rtti.Word, rtti.Word), Fn: func(_ any, args []any) bool {
				return args[0].(uint64)%2 == 1
			}})
		install("E", Ephemeral(time.Minute), 10000, nil, Guard{Pred: codegen.ArgLt(0, 4)})
		install("H", nil, 100, nil, Guard{Pred: codegen.ArgEq(1, 3)})

		want := "stencil[fold,guarded]"
		if metered {
			want = "stencil[fold,observed]"
		}
		if protect {
			want = want[:len(want)-1] + ",barrier]"
		}
		if got := e.Plan().Executor(metered); got != want {
			t.Fatalf("metered=%v protect=%v: executor %s, want %s", metered, protect, got, want)
		}
		if runs, _ := e.Plan().IndexedRuns(); runs != 1 {
			t.Fatalf("metered=%v protect=%v: %d indexed runs, want 1", metered, protect, runs)
		}
		for _, a := range raises {
			res, err := e.Raise2(a[0], a[1])
			r.results = append(r.results, fmt.Sprint(res, err))
			if (a == [2]uint64{9, 1}) != errors.Is(err, ErrNoHandler) {
				t.Errorf("metered=%v protect=%v: raise %v: %v", metered, protect, a, err)
			}
		}
		r.fired = e.Stats().Fired
		return r
	}
	for _, protect := range []bool{false, true} {
		plain, observed := do(false, protect), do(true, protect)
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("protect=%v: plain stencil\n%+v\nobserved walk\n%+v", protect, plain, observed)
		}
		// F1 fires on every raise and F2 on the two whose rewritten argument
		// 0 is odd with argument 1 below 5; a run step on all but the third
		// raise, A on the two that argument 0 reads 3 on, E on the three it
		// reads below 4, and H on the last two.
		if plain.fired != 5+2+4+2+3+2 {
			t.Errorf("protect=%v: Stats().Fired %d, want 18\n%+v", protect, plain.fired, plain)
		}
	}
}
