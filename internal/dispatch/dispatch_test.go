package dispatch

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"spin/internal/admit"
	"spin/internal/codegen"
	"spin/internal/fault"
	"spin/internal/rtti"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// Test fixtures: a module, events of various shapes, and handler builders.

var testModule = rtti.NewModule("TestModule", "Test")

func voidProc(name string, args ...rtti.Type) *rtti.Proc {
	return &rtti.Proc{Name: name, Module: testModule, Sig: rtti.Sig(nil, args...)}
}

func resultProc(name string, result rtti.Type, args ...rtti.Type) *rtti.Proc {
	return &rtti.Proc{Name: name, Module: testModule, Sig: rtti.Sig(result, args...)}
}

func guardProc(name string, args ...rtti.Type) *rtti.Proc {
	return &rtti.Proc{Name: name, Module: testModule, Sig: rtti.Sig(rtti.Bool, args...), Functional: true}
}

func handler(proc *rtti.Proc, fn HandlerFn) Handler {
	return Handler{Proc: proc, Fn: fn}
}

func mustDefine(t *testing.T, d *Dispatcher, name string, sig rtti.Signature, opts ...EventOption) *Event {
	t.Helper()
	e, err := d.DefineEvent(name, sig, opts...)
	if err != nil {
		t.Fatalf("DefineEvent(%s): %v", name, err)
	}
	return e
}

func TestDefineEventBasics(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word))
	if e.Name() != "M.P" || e.Signature().Arity() != 1 {
		t.Fatal("event metadata wrong")
	}
	if _, ok := d.Lookup("M.P"); !ok {
		t.Fatal("Lookup missed defined event")
	}
	if _, ok := d.Lookup("M.Q"); ok {
		t.Fatal("Lookup invented an event")
	}
	if len(d.Events()) != 1 {
		t.Fatal("Events() snapshot wrong")
	}
	if _, err := d.DefineEvent("M.P", rtti.Sig(nil)); !errors.Is(err, ErrDuplicateEvent) {
		t.Fatalf("duplicate define: %v", err)
	}
}

func TestIntrinsicHandlerDispatchesAsProcedureCall(t *testing.T) {
	// Figure 1: an event with only an intrinsic handler is identical (in
	// semantics and implementation) to a procedure call.
	d := New()
	calls := 0
	e := mustDefine(t, d, "M.P", rtti.Sig(rtti.Word, rtti.Word),
		WithIntrinsic(handler(resultProc("M.P", rtti.Word, rtti.Word), func(clo any, args []any) any {
			calls++
			return args[0].(int) * 2
		})))
	if e.Plan().Direct() == nil {
		t.Fatal("intrinsic-only event must compile to a direct call")
	}
	res, err := e.Raise(21)
	if err != nil || res != 42 || calls != 1 {
		t.Fatalf("res=%v err=%v calls=%d", res, err, calls)
	}
	if e.authority != testModule {
		t.Fatal("authority must be the intrinsic handler's module")
	}
	if e.IntrinsicBinding() == nil {
		t.Fatal("intrinsic binding missing")
	}
}

func TestReplaceIntrinsicHandler(t *testing.T) {
	// §2.1: "A typical model for changing the implementation of a single
	// procedure within a module is to deregister the intrinsic handler
	// and then register an alternate one."
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(rtti.Text),
		WithIntrinsic(handler(resultProc("M.P", rtti.Text), func(any, []any) any { return "old" })))
	if err := e.Uninstall(e.IntrinsicBinding()); err != nil {
		t.Fatalf("deregister intrinsic: %v", err)
	}
	if e.IntrinsicBinding() != nil {
		t.Fatal("intrinsic still reported installed")
	}
	if _, err := e.Raise(); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("raise with no handlers: %v", err)
	}
	if _, err := e.Install(handler(resultProc("N.P", rtti.Text), func(any, []any) any { return "new" })); err != nil {
		t.Fatalf("install replacement: %v", err)
	}
	res, err := e.Raise()
	if err != nil || res != "new" {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestNoHandlerException(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	if _, err := e.Raise(); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

func TestBadArity(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word))
	if _, err := e.Raise(); !errors.Is(err, ErrBadArity) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Raise(1, 2); !errors.Is(err, ErrBadArity) {
		t.Fatalf("err = %v", err)
	}
	if err := e.RaiseAsync(); !errors.Is(err, ErrBadArity) {
		t.Fatalf("async err = %v", err)
	}
}

func TestArgTypeCheckingInPurityMode(t *testing.T) {
	d := New(WithPurityChecking())
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word, rtti.Text))
	_, _ = e.Install(handler(voidProc("H", rtti.Word, rtti.Text), func(any, []any) any { return nil }))
	if _, err := e.Raise(1, "ok"); err != nil {
		t.Fatalf("valid args rejected: %v", err)
	}
	if _, err := e.Raise("wrong", "ok"); !errors.Is(err, ErrBadArgType) {
		t.Fatalf("err = %v", err)
	}
	// The lone handler is a bypass, but a purity-checked batch still checks
	// each frame's types.
	if out := e.RaiseBatch2([]any{1, "ok", "wrong", "ok"}); out.Raised != 1 || out.Rejected != 1 {
		t.Fatalf("batch: %+v, want 1 raised and 1 rejected", out)
	}
}

func TestInstallTypechecking(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word))
	// Wrong arity.
	if _, err := e.Install(handler(voidProc("H"), func(any, []any) any { return nil })); err == nil {
		t.Fatal("wrong-arity handler accepted")
	}
	// Wrong result.
	if _, err := e.Install(handler(resultProc("H", rtti.Word, rtti.Word), func(any, []any) any { return nil })); err == nil {
		t.Fatal("wrong-result handler accepted")
	}
	// Missing implementation and descriptor.
	if _, err := e.Install(Handler{Proc: voidProc("H", rtti.Word)}); !errors.Is(err, ErrNilHandler) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Install(Handler{Fn: func(any, []any) any { return nil }}); !errors.Is(err, rtti.ErrNilProc) {
		t.Fatalf("err = %v", err)
	}
}

func TestClosurePassedToHandler(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word))
	var got any
	proc := &rtti.Proc{Name: "H", Module: testModule,
		Sig: rtti.Signature{Args: []rtti.Type{rtti.RefAny, rtti.Word}}}
	_, err := e.Install(handler(proc, func(clo any, args []any) any {
		got = clo
		return nil
	}), WithClosure("the-closure"))
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	if _, err := e.Raise(7); err != nil {
		t.Fatalf("raise: %v", err)
	}
	if got != "the-closure" {
		t.Fatalf("closure = %v", got)
	}
}

func TestClosureTypechecking(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	// Handler with a closure must declare a closure parameter.
	noParam := voidProc("H")
	if _, err := e.Install(handler(noParam, func(any, []any) any { return nil }), WithClosure("x")); err == nil {
		t.Fatal("closure without parameter accepted")
	}
	// Closure of the wrong type must be rejected: Text is not a
	// reference type.
	wordParam := &rtti.Proc{Name: "H", Module: testModule,
		Sig: rtti.Signature{Args: []rtti.Type{rtti.Word}}}
	if _, err := e.Install(handler(wordParam, func(any, []any) any { return nil }), WithClosure("str")); err == nil {
		t.Fatal("TEXT closure accepted for WORD parameter")
	}
}

func TestSameHandlerInstalledManyTimes(t *testing.T) {
	// §2.1: the same handler can be installed many times and is invoked
	// independently for each installation.
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	n := 0
	h := handler(voidProc("H"), func(any, []any) any { n++; return nil })
	for i := 0; i < 3; i++ {
		if _, err := e.Install(h); err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	if _, err := e.Raise(); err != nil {
		t.Fatalf("raise: %v", err)
	}
	if n != 3 {
		t.Fatalf("handler fired %d times, want 3", n)
	}
}

func TestGuardsConditionDispatch(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "Trap.Syscall", rtti.Sig(nil, rtti.Word))
	var machCalls, osfCalls int
	isMach := Guard{Proc: guardProc("IsMach", rtti.Word), Fn: func(clo any, args []any) bool {
		return args[0].(int) < 100
	}}
	isOSF := Guard{Proc: guardProc("IsOSF", rtti.Word), Fn: func(clo any, args []any) bool {
		return args[0].(int) >= 100
	}}
	_, _ = e.Install(handler(voidProc("Mach.Syscall", rtti.Word), func(any, []any) any { machCalls++; return nil }), WithGuard(isMach))
	_, _ = e.Install(handler(voidProc("OSF.Syscall", rtti.Word), func(any, []any) any { osfCalls++; return nil }), WithGuard(isOSF))

	if _, err := e.Raise(42); err != nil {
		t.Fatalf("raise: %v", err)
	}
	if _, err := e.Raise(200); err != nil {
		t.Fatalf("raise: %v", err)
	}
	if machCalls != 1 || osfCalls != 1 {
		t.Fatalf("mach=%d osf=%d", machCalls, osfCalls)
	}
}

func TestGuardRejectionRaisesNoHandler(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	never := Guard{Pred: codegen.False()}
	_, _ = e.Install(handler(voidProc("H"), func(any, []any) any { return nil }), WithGuard(never))
	if _, err := e.Raise(); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v", err)
	}
}

func TestGuardClosure(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word))
	gproc := &rtti.Proc{Name: "G", Module: testModule, Functional: true,
		Sig: rtti.Signature{Args: []rtti.Type{rtti.RefAny, rtti.Word}, Result: rtti.Bool}}
	var sawClosure any
	g := Guard{Proc: gproc, Closure: "guard-closure", Fn: func(clo any, args []any) bool {
		sawClosure = clo
		return true
	}}
	n := 0
	_, err := e.Install(handler(voidProc("H", rtti.Word), func(any, []any) any { n++; return nil }), WithGuard(g))
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	if _, err := e.Raise(1); err != nil {
		t.Fatalf("raise: %v", err)
	}
	if sawClosure != "guard-closure" || n != 1 {
		t.Fatalf("closure=%v n=%d", sawClosure, n)
	}
}

func TestGuardMustBeFunctional(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	impure := &rtti.Proc{Name: "G", Module: testModule, Sig: rtti.Sig(rtti.Bool)}
	g := Guard{Proc: impure, Fn: func(any, []any) bool { return true }}
	_, err := e.Install(handler(voidProc("H"), func(any, []any) any { return nil }), WithGuard(g))
	if !errors.Is(err, rtti.ErrNotFunc) {
		t.Fatalf("err = %v, want ErrNotFunc", err)
	}
}

// TestPurityMonitorCatchesMutatingGuard: a mutating FUNCTIONAL guard
// rejects the raise with ErrGuardMutatedArgs through every raise entry, on
// a plain, a metered, a traced and an enforcing dispatcher. A rejected
// raise counts no firing. Any other guard or handler panic reaches the
// raiser unless a fault policy captures it.
func TestPurityMonitorCatchesMutatingGuard(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"plain", nil},
		{"metered", WithCPU(vtime.NewCPU(&vtime.Clock{}, vtime.AlphaModel()))},
		{"traced", WithTracer(trace.New(trace.Config{Capacity: 256, Sample: 1}))},
		{"faultPolicy", WithFaultPolicy(fault.DefaultPolicy())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithPurityChecking()}
			if tc.opt != nil {
				opts = append(opts, tc.opt)
			}
			d := New(opts...)
			enforcing := d.FaultLedger().Policy().Enforcing()
			e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word))
			// Argument 0 makes the guard mutate its arguments, 1 makes it
			// panic, 2 makes the handler panic.
			evil := Guard{Proc: guardProc("Evil", rtti.Word), Fn: func(clo any, args []any) bool {
				switch args[0] {
				case uint64(0):
					args[0] = 999 // FUNCTIONAL violation
				case uint64(1):
					panic("guard")
				}
				return true
			}}
			h := handler(voidProc("H", rtti.Word), func(_ any, args []any) any {
				if args[0] == uint64(2) {
					panic("handler")
				}
				return nil
			})
			if _, err := e.Install(h, WithGuard(evil)); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Raise(uint64(0)); !errors.Is(err, ErrGuardMutatedArgs) {
				t.Fatalf("err = %v, want ErrGuardMutatedArgs", err)
			}
			if _, err := e.Raise1(uint64(0)); !errors.Is(err, ErrGuardMutatedArgs) {
				t.Fatalf("Raise1: err = %v, want ErrGuardMutatedArgs", err)
			}
			if rep, err := e.RaiseReport(uint64(0)); !errors.Is(err, ErrGuardMutatedArgs) || rep != (RaiseReport{}) {
				t.Fatalf("RaiseReport: %+v, err = %v, want a zero report and ErrGuardMutatedArgs", rep, err)
			}
			if st := e.Stats(); st.Raised != 3 || st.Fired != 0 {
				t.Fatalf("after 3 rejections: Raised %d, Fired %d, want 3, 0", st.Raised, st.Fired)
			}
			raise := func(arg uint64) (val any, err error) {
				defer func() { val = recover() }()
				_, err = e.Raise(arg)
				return nil, err
			}
			// With a policy the guard panic fails the guard and the handler
			// panic counts as fired; without one both reach the raiser, each
			// counted as one firing.
			wantFired := int64(2)
			if val, err := raise(1); enforcing && !errors.Is(err, ErrNoHandler) || !enforcing && val != "guard" {
				t.Errorf("guard panic: raiser saw panic %v, err %v", val, err)
			}
			if val, err := raise(2); enforcing && (val != nil || err != nil) || !enforcing && val != "handler" {
				t.Errorf("handler panic: raiser saw panic %v, err %v", val, err)
			}
			if enforcing {
				wantFired = 1
			}
			if st := e.Stats(); st.Raised != 5 || st.Fired != wantFired {
				t.Errorf("after 3 rejections, a guard and a handler panic: Raised %d, Fired %d, want 5, %d",
					st.Raised, st.Fired, wantFired)
			}
		})
	}
}

func TestResultSingleHandler(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.F", rtti.Sig(rtti.Word))
	_, _ = e.Install(handler(resultProc("H", rtti.Word), func(any, []any) any { return 7 }))
	res, err := e.Raise()
	if err != nil || res != 7 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestResultHandlerLogicalOr(t *testing.T) {
	// The paper's VM.PageFault example: the result handler returns the
	// logical-or of all the handler results.
	d := New()
	e := mustDefine(t, d, "VM.PageFault", rtti.Sig(rtti.Bool, rtti.Word))
	if err := e.SetResultHandler(func(acc, r any, i int) any {
		a, _ := acc.(bool)
		b, _ := r.(bool)
		return a || b
	}); err != nil {
		t.Fatalf("SetResultHandler: %v", err)
	}
	mk := func(v bool) Handler {
		return handler(resultProc("Pager", rtti.Bool, rtti.Word), func(any, []any) any { return v })
	}
	_, _ = e.Install(mk(false))
	_, _ = e.Install(mk(true))
	_, _ = e.Install(mk(false))
	res, err := e.Raise(0x1000)
	if err != nil || res != true {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestAmbiguousResultError(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.F", rtti.Sig(rtti.Word))
	_, _ = e.Install(handler(resultProc("H1", rtti.Word), func(any, []any) any { return 1 }))
	_, _ = e.Install(handler(resultProc("H2", rtti.Word), func(any, []any) any { return 2 }))
	if _, err := e.Raise(); !errors.Is(err, ErrAmbiguousResult) {
		t.Fatalf("err = %v", err)
	}
}

func TestDefaultHandler(t *testing.T) {
	// §2.3: a default handler executes only when no other handler fires.
	d := New()
	e := mustDefine(t, d, "VM.PageFault", rtti.Sig(rtti.Bool, rtti.Word))
	if err := e.SetDefaultHandler(handler(resultProc("DefaultPager", rtti.Bool, rtti.Word),
		func(any, []any) any { return true })); err != nil {
		t.Fatalf("SetDefaultHandler: %v", err)
	}
	res, err := e.Raise(0)
	if err != nil || res != true {
		t.Fatalf("default path: res=%v err=%v", res, err)
	}
	// Install a real handler: default must step aside.
	_, _ = e.Install(handler(resultProc("Pager", rtti.Bool, rtti.Word), func(any, []any) any { return false }))
	res, err = e.Raise(0)
	if err != nil || res != false {
		t.Fatalf("handler path: res=%v err=%v", res, err)
	}
	// Clearing restores the exception.
	_ = e.SetDefaultHandler(handler(resultProc("Pager", rtti.Bool, rtti.Word), func(any, []any) any { return false }))
	if err := e.SetDefaultHandler(Handler{}); err != nil {
		t.Fatalf("clear default: %v", err)
	}
}

func TestFilterRewritesArguments(t *testing.T) {
	// §2.3: the MS-DOS-name-space example — a filter converts file names,
	// subsequent handlers see the converted value, the raiser's value is
	// untouched.
	d := New()
	e := mustDefine(t, d, "FS.Open", rtti.Sig(nil, rtti.Text))
	fproc := &rtti.Proc{Name: "DosFilter", Module: testModule,
		Sig: rtti.Signature{Args: []rtti.Type{rtti.Text}, ByRef: []bool{true}}}
	_, err := e.Install(Handler{Proc: fproc, Fn: func(clo any, args []any) any {
		args[0] = "unix/" + args[0].(string)
		return nil
	}}, AsFilter())
	if err != nil {
		t.Fatalf("install filter: %v", err)
	}
	var seen string
	_, _ = e.Install(handler(voidProc("Open", rtti.Text), func(clo any, args []any) any {
		seen = args[0].(string)
		return nil
	}), Last())
	name := "C:\\AUTOEXEC.BAT"
	if _, err := e.Raise(name); err != nil {
		t.Fatalf("raise: %v", err)
	}
	if seen != "unix/C:\\AUTOEXEC.BAT" {
		t.Fatalf("downstream saw %q", seen)
	}
	if name != "C:\\AUTOEXEC.BAT" {
		t.Fatal("raiser's value mutated")
	}
}

func TestGuardAfterFilterSeesRewrittenArgs(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word))
	fproc := &rtti.Proc{Name: "F", Module: testModule,
		Sig: rtti.Signature{Args: []rtti.Type{rtti.Word}, ByRef: []bool{true}}}
	_, _ = e.Install(Handler{Proc: fproc, Fn: func(clo any, args []any) any {
		args[0] = uint64(80)
		return nil
	}}, AsFilter())
	fired := 0
	_, _ = e.Install(handler(voidProc("H", rtti.Word), func(any, []any) any { fired++; return nil }),
		WithGuard(Guard{Pred: codegen.ArgEq(0, 80)}), Last())
	if _, err := e.Raise(uint64(9999)); err != nil {
		t.Fatalf("raise: %v", err)
	}
	if fired != 1 {
		t.Fatal("guard after filter did not see rewritten argument")
	}
}

func TestUninstall(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	n := 0
	b, _ := e.Install(handler(voidProc("H"), func(any, []any) any { n++; return nil }))
	if !b.Installed() {
		t.Fatal("binding not reported installed")
	}
	if err := e.Uninstall(b); err != nil {
		t.Fatalf("uninstall: %v", err)
	}
	if b.Installed() {
		t.Fatal("binding still reported installed")
	}
	if err := e.Uninstall(b); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("double uninstall: %v", err)
	}
	if err := e.Uninstall(nil); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("nil uninstall: %v", err)
	}
	if _, err := e.Raise(); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("raise after uninstall: %v", err)
	}
	if n != 0 {
		t.Fatal("handler fired after uninstall")
	}
}

func TestStats(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	_, _ = e.Install(handler(voidProc("H"), func(any, []any) any { return nil }),
		WithGuard(Guard{Pred: codegen.True()}))
	_, _ = e.Install(handler(voidProc("H2"), func(any, []any) any { return nil }))
	for i := 0; i < 5; i++ {
		_, _ = e.Raise()
	}
	s := e.Stats()
	if s.Raised != 5 {
		t.Errorf("Raised = %d", s.Raised)
	}
	if s.Fired != 10 {
		t.Errorf("Fired = %d", s.Fired)
	}
	if s.Handlers != 2 {
		t.Errorf("Handlers = %d", s.Handlers)
	}
	if s.Guards != 1 {
		t.Errorf("Guards = %d", s.Guards)
	}
}

// TestStatsCountEveryExecutor: every executor counts through the one
// statistics protocol, so Stats().Fired counts one firing per invocation
// the handlers count themselves, after a direct (bare and protected, whose
// handler panics; single raises and batch), stencil, barrier, filter,
// ephemeral (completed and abandoned), async (observed stencil), metered
// and batch raise, a raise that fires nothing and one that fires three,
// and a batch mixing them; and a bare handler that panics out to the
// raiser counts the raise as one firing.
func TestStatsCountEveryExecutor(t *testing.T) {
	filterProc := &rtti.Proc{Name: "F", Module: testModule,
		Sig: rtti.Signature{Args: []rtti.Type{rtti.Word}, ByRef: []bool{true}}}
	ephemeralProc := func(name string) *rtti.Proc {
		return &rtti.Proc{Name: name, Module: testModule, Sig: rtti.Sig(nil, rtti.Word), Ephemeral: true}
	}
	raise := func(e *Event, batch bool, args ...any) {
		if batch {
			e.RaiseBatch1(args)
			return
		}
		for _, a := range args {
			_, _ = e.Raise1(a)
		}
	}
	// release unblocks the abandoned ephemeral invocations at the end.
	release := make(chan struct{})
	defer close(release)
	// counted is a handler body that counts its invocation on entry, so a
	// panicking or abandoned one still counts, then runs then.
	counted := func(n *atomic.Int64, then func()) HandlerFn {
		return func(any, []any) any {
			n.Add(1)
			if then != nil {
				then()
			}
			return nil
		}
	}
	// check waits for the handlers' counts (an async or abandoned invocation
	// may finish after its raise returns) and holds Stats() to their sum.
	check := func(name string, e *Event, got map[string]*atomic.Int64, want map[string]int64) {
		t.Helper()
		var total int64
		for h, n := range want {
			total += n
			c := got[h]
			waitFor(t, func() bool { return c.Load() >= n }, fmt.Sprintf("%s: %s to fire %d times", name, h, n))
			if c.Load() != n {
				t.Errorf("%s: %s fired %d, want %d", name, h, c.Load(), n)
			}
		}
		if s := e.Stats(); s.Raised != 3 || s.Fired != total {
			t.Errorf("%s: Stats raised %d fired %d, want 3 and %d", name, s.Raised, s.Fired, total)
		}
	}
	for _, tc := range []struct {
		name, executor string
		opts           []Option
		// kind names the bindings installed ahead of G and H: "filter",
		// "ephemeral" (one completing, one abandoned) or "async".
		kind  string
		batch bool
	}{
		{name: "stencil", executor: "stencil[void,guarded]"},
		{name: "barrier", executor: "stencil[void,guarded,barrier]",
			opts: []Option{WithFaultPolicy(fault.Policy{Budget: 100, Backoff: time.Hour})}},
		{name: "filter", executor: "stencil[void,guarded]", kind: "filter"},
		{name: "filter, barrier", executor: "stencil[void,guarded,barrier]", kind: "filter",
			opts: []Option{WithFaultPolicy(fault.Policy{Budget: 100, Backoff: time.Hour})}},
		{name: "filter, batch", executor: "stencil[void,guarded]", kind: "filter", batch: true},
		{name: "ephemeral, completed and abandoned", executor: "stencil[void,guarded]", kind: "ephemeral"},
		{name: "ephemeral, fault policy on, batch", executor: "stencil[void,guarded,barrier]", kind: "ephemeral",
			opts: []Option{WithFaultPolicy(fault.Policy{Budget: 100, Backoff: time.Hour})}, batch: true},
		{name: "async", executor: "stencil[void,guarded]", kind: "async"},
		{name: "async, batch", executor: "stencil[void,guarded]", kind: "async", batch: true},
		{name: "metered", executor: "stencil[void,observed]",
			opts: []Option{WithCPU(vtime.NewCPU(&vtime.Clock{}, vtime.AlphaModel()))}},
		{name: "batch", executor: "stencil[void,guarded]", batch: true},
	} {
		d := New(tc.opts...)
		e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word))
		got := map[string]*atomic.Int64{}
		want := map[string]int64{"G": 2, "H": 3}
		install := func(name string, h Handler, opts ...InstallOption) {
			if _, err := e.Install(h, opts...); err != nil {
				t.Fatalf("%s: install %s: %v", tc.name, name, err)
			}
		}
		count := func(name string, then func()) HandlerFn {
			got[name] = new(atomic.Int64)
			return counted(got[name], then)
		}
		switch tc.kind {
		case "filter":
			install("F", Handler{Proc: filterProc, Fn: count("F", nil)}, AsFilter())
			want["F"] = 3
		case "ephemeral":
			install("E1", Handler{Proc: ephemeralProc("E1"), Fn: count("E1", nil)}, Ephemeral(time.Minute))
			install("E2", Handler{Proc: ephemeralProc("E2"), Fn: count("E2", func() { <-release })},
				Ephemeral(2*time.Millisecond))
			want["E1"], want["E2"] = 3, 3
		case "async":
			install("A", handler(voidProc("A", rtti.Word), count("A", nil)), Async())
			want["A"] = 3
		}
		install("G", handler(voidProc("G", rtti.Word), count("G", nil)), WithGuard(Guard{Pred: codegen.ArgEq(0, 1)}))
		install("H", handler(voidProc("H", rtti.Word), count("H", nil)))
		if got := e.Plan().Executor(d.CPU() != nil); got != tc.executor {
			t.Fatalf("%s: executor %s, want %s", tc.name, got, tc.executor)
		}
		raise(e, tc.batch, uint64(1), uint64(2), uint64(1))
		check(tc.name, e, got, want)
	}
	// The direct bypass, single raises and batches, bare and behind
	// its per-call barrier with a handler that panics on every call.
	for _, protected := range []bool{false, true} {
		for _, batch := range []bool{false, true} {
			var opts []Option
			var then func()
			if protected {
				opts = append(opts, WithFaultPolicy(fault.Policy{Budget: 100, Backoff: time.Hour}))
				then = func() { panic("direct") }
			}
			var n atomic.Int64
			e := mustDefine(t, New(opts...), "M.D", rtti.Sig(nil, rtti.Word),
				WithIntrinsic(handler(voidProc("D", rtti.Word), counted(&n, then))))
			if got := e.Plan().Executor(false); got != "direct" {
				t.Fatalf("intrinsic only: executor %s, want direct", got)
			}
			raise(e, batch, uint64(1), uint64(2), uint64(1))
			check(fmt.Sprintf("direct, protected %v, batch %v", protected, batch), e,
				map[string]*atomic.Int64{"D": &n}, map[string]int64{"D": 3})
		}
	}
	// Raises that fire other than one handler: the excess protocol's
	// negative and positive adds, single and batched. A fires on any
	// nonzero word and B and C on 3, so a raise of 0 fires none
	// (ErrNoHandler), of 1 one, of 3 three.
	for _, tc := range []struct {
		name  string
		words []any
		batch bool
		want  map[string]int64
	}{
		{name: "fires 0", words: []any{uint64(0), uint64(0), uint64(0)},
			want: map[string]int64{"A": 0, "B": 0, "C": 0}},
		{name: "fires 3", words: []any{uint64(3), uint64(3), uint64(3)},
			want: map[string]int64{"A": 3, "B": 3, "C": 3}},
		{name: "batch fires 0, 1, 3", words: []any{uint64(0), uint64(1), uint64(3)}, batch: true,
			want: map[string]int64{"A": 2, "B": 1, "C": 1}},
	} {
		e := mustDefine(t, New(), "M.X", rtti.Sig(nil, rtti.Word))
		got := map[string]*atomic.Int64{}
		for _, h := range []struct {
			name  string
			guard *codegen.Pred
		}{{"A", codegen.ArgNe(0, 0)}, {"B", codegen.ArgEq(0, 3)}, {"C", codegen.ArgEq(0, 3)}} {
			got[h.name] = new(atomic.Int64)
			if _, err := e.Install(handler(voidProc(h.name, rtti.Word), counted(got[h.name], nil)),
				WithGuard(Guard{Pred: h.guard})); err != nil {
				t.Fatal(err)
			}
		}
		if got := e.Plan().Executor(false); got != "stencil[void,guarded]" {
			t.Fatalf("%s: executor %s, want stencil[void,guarded]", tc.name, got)
		}
		if tc.batch {
			if out := e.RaiseBatch1(tc.words); out.Raised != 3 || out.NoHandler != 1 {
				t.Errorf("%s: %+v, want 3 raised, 1 unhandled", tc.name, out)
			}
		} else {
			for _, w := range tc.words {
				if _, err := e.Raise1(w); (w == uint64(0)) != errors.Is(err, ErrNoHandler) {
					t.Errorf("%s: raise of %v: %v", tc.name, w, err)
				}
			}
		}
		check(tc.name, e, got, tc.want)
	}
	// A bare handler (no fault policy) that panics out to the raiser, on the
	// direct bypass and behind a guarded step on the stencil: the raise
	// counts as one firing — its raised add stands for one, and the
	// executor's excess add never runs (Raised +1, Fired +1). So a
	// panicking handler counts as fired, as it does behind the barrier; the
	// stencil's firing ahead of it is the excess that never landed.
	for _, stencil := range []bool{false, true} {
		var n atomic.Int64
		e := mustDefine(t, New(), "M.B", rtti.Sig(nil, rtti.Word),
			WithIntrinsic(handler(voidProc("B", rtti.Word), counted(&n, func() { panic("bare") }))))
		want := "direct"
		if stencil {
			if _, err := e.Install(handler(voidProc("G", rtti.Word), counted(&n, nil)), WithGuard(Guard{Pred: codegen.ArgEq(0, 1)}), First()); err != nil {
				t.Fatal(err)
			}
			want = "stencil[void,guarded]"
		}
		if got := e.Plan().Executor(false); got != want {
			t.Fatalf("bare panic: executor %s, want %s", got, want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bare panic on %s: the raise returned", want)
				}
			}()
			_, _ = e.Raise1(uint64(1))
		}()
		if s := e.Stats(); n.Load() == 0 || s.Raised != 1 || s.Fired != 1 {
			t.Errorf("bare panic on %s: %d invocations, Stats raised %d fired %d, want raised 1 fired 1",
				want, n.Load(), s.Raised, s.Fired)
		}
	}
}

func TestBindingAccessors(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	fired := 0
	b, _ := e.Install(handler(voidProc("Mod.H"), func(any, []any) any { fired++; return nil }))
	if b.Event() != e {
		t.Error("Event() wrong")
	}
	if b.HandlerName() != "Mod.H" {
		t.Errorf("HandlerName = %q", b.HandlerName())
	}
	if b.Installer() != testModule {
		t.Error("Installer wrong")
	}
	if b.Intrinsic() || b.Async() || b.Ephemeral() || b.Filter() {
		t.Error("property flags wrong")
	}
	_, _ = e.Raise()
	if fired != 1 || e.Stats().Fired != 1 {
		t.Errorf("fired %d, Stats().Fired %d, want 1 and 1", fired, e.Stats().Fired)
	}
	anon := &Binding{event: e}
	if anon.HandlerName() != "<anonymous>" || anon.Installer() != nil {
		t.Error("anonymous binding accessors wrong")
	}
}

func TestEventLookupAndPlanDisassembly(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil),
		WithIntrinsic(handler(voidProc("M.P"), func(any, []any) any { return nil })))
	if e.Plan().Disassemble() == "" {
		t.Fatal("empty disassembly")
	}
}

func TestAsyncEventDefinitionRejectsByRef(t *testing.T) {
	d := New()
	sig := rtti.Signature{Args: []rtti.Type{rtti.Word}, ByRef: []bool{true}}
	if _, err := d.DefineEvent("M.P", sig, AsAsync()); !errors.Is(err, ErrAsyncByRef) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvalidSignatureRejected(t *testing.T) {
	d := New()
	bad := rtti.Signature{Args: []rtti.Type{rtti.Word}, ByRef: []bool{true, false}}
	if _, err := d.DefineEvent("M.P", bad); err == nil {
		t.Fatal("invalid signature accepted")
	}
}

func TestAccessorsAndStringers(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.Async", rtti.Sig(nil), AsAsync())
	if !e.Async() {
		t.Fatal("Async() false for async event")
	}
	if e.Dispatcher() != d {
		t.Fatal("Dispatcher() wrong")
	}
	for _, k := range []OrderKind{Unordered, OrderFirst, OrderLast, OrderBefore, OrderAfter, OrderKind(99)} {
		if k.String() == "" {
			t.Fatal("empty OrderKind name")
		}
	}
	for _, op := range []AuthOp{OpInstall, OpUninstall, OpSetDefault, OpSetResult, AuthOp(99)} {
		if op.String() == "" {
			t.Fatal("empty AuthOp name")
		}
	}
}

func TestGuardValidationErrors(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	h := handler(voidProc("H"), func(any, []any) any { return nil })
	// Guard without implementation.
	if _, err := e.Install(h, WithGuard(Guard{Proc: guardProc("G")})); err == nil {
		t.Fatal("guard without Fn accepted")
	}
	// Guard with Fn but no descriptor.
	if _, err := e.Install(h, WithGuard(Guard{Fn: func(any, []any) bool { return true }})); err == nil {
		t.Fatal("guard without Proc accepted")
	}
}

func TestImposeGuardTypecheckFailure(t *testing.T) {
	d := New()
	owner := rtti.NewModule("Owner")
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word), WithOwner(owner))
	b, _ := e.Install(handler(voidProc("H", rtti.Word), func(any, []any) any { return nil }))
	// An imposed guard with a mismatched signature is rejected.
	bad := Guard{
		Proc: &rtti.Proc{Name: "G", Module: owner, Functional: true,
			Sig: rtti.Sig(rtti.Bool, rtti.Text)},
		Fn: func(any, []any) bool { return true },
	}
	if err := e.ImposeGuard(b, bad, owner); err == nil {
		t.Fatal("ill-typed imposed guard accepted")
	}
	// Authorizer-context imposition hits the same check.
	_ = e.InstallAuthorizer(func(req *AuthRequest) bool {
		return req.ImposeGuard(bad) == nil
	}, owner)
	if _, err := e.Install(handler(voidProc("H2", rtti.Word), func(any, []any) any { return nil })); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestSetDefaultHandlerValidation(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.F", rtti.Sig(rtti.Word))
	// Wrong signature default handler.
	bad := handler(voidProc("D"), func(any, []any) any { return nil })
	if err := e.SetDefaultHandler(bad); err == nil {
		t.Fatal("ill-typed default handler accepted")
	}
	// Missing descriptor.
	if err := e.SetDefaultHandler(Handler{Fn: func(any, []any) any { return nil }}); err == nil {
		t.Fatal("default handler without Proc accepted")
	}
}

func TestSetOrderRestoresOnBadRef(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	a, _ := e.Install(handler(voidProc("A"), func(any, []any) any { return nil }))
	b, _ := e.Install(handler(voidProc("B"), func(any, []any) any { return nil }))
	other := mustDefine(t, d, "M.Q", rtti.Sig(nil))
	foreign, _ := other.Install(handler(voidProc("X"), func(any, []any) any { return nil }))
	// Reordering against a foreign binding fails and restores position.
	if err := e.SetOrder(a, Order{Kind: OrderBefore, Ref: foreign}); !errors.Is(err, ErrOrderRef) {
		t.Fatalf("err = %v", err)
	}
	if e.Position(a) != 0 || e.Position(b) != 1 {
		t.Fatalf("positions disturbed: a=%d b=%d", e.Position(a), e.Position(b))
	}
}

func TestBindingStringIsInformative(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	b, _ := e.Install(handler(voidProc("Mod.H"), func(any, []any) any { return nil }))
	_ = b
	// Strand-style String on Order values via the binding accessors.
	if b.Order().Kind != Unordered {
		t.Fatal("fresh binding has a constraint")
	}
}

// TestControlChargeIsOneRecompile pins the metered price of every control
// operation. An operation on the paper's installation workload costs
// exactly one plan regeneration over the bindings present after it —
// PlanCompileBase + n·PlanCompileBinding (§3.1) — and operator and
// controller operations (quarantine, readmission, degradation, tracing,
// admission) are uncharged. A double recompile, or a flipped
// charge bit on any path, moves an AccountEvents delta.
func TestControlChargeIsOneRecompile(t *testing.T) {
	clock := &vtime.Clock{}
	cpu := vtime.NewCPU(clock, vtime.AlphaModel())
	sim := vtime.NewSimulator(clock)
	d := New(WithCPU(cpu), WithSimulator(sim),
		WithFaultPolicy(fault.Policy{Budget: 1, Backoff: time.Millisecond}),
		WithAdmission(AdmissionConfig{Levels: []admit.Level{{Name: "brownout", MinPriority: 1}}}))
	nop := func(any, []any) any { return nil }
	h := func(name string) Handler { return handler(voidProc(name, rtti.Word), nop) }
	e := mustDefine(t, d, "C.Charge", rtti.Sig(nil, rtti.Word), WithIntrinsic(h("Intr")))
	ext := rtti.NewModule("Ext")
	var bs []*Binding
	for i := 0; i < 4; i++ {
		b, err := e.Install(h(fmt.Sprintf("H%d", i)), WithPriority(i%2))
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	x, err := e.Install(Handler{Proc: &rtti.Proc{Name: "X", Module: ext, Sig: rtti.Sig(nil, rtti.Word)}, Fn: nop})
	if err != nil {
		t.Fatal(err)
	}
	model := cpu.Model()
	g := Guard{Pred: codegen.ArgEq(0, 1)}
	tr := trace.New(trace.Config{})
	pol := admit.Policy{Depth: 4}
	var nb *Binding
	for _, tc := range []struct {
		name    string
		charged bool
		op      func() error
	}{
		{"Install", true, func() (err error) { nb, err = e.Install(h("New")); return }},
		{"SetOrder", true, func() error { return e.SetOrder(nb, Order{Kind: OrderFirst}) }},
		{"Uninstall", true, func() error { return e.Uninstall(nb) }},
		{"SetDefaultHandler set", true, func() error { return e.SetDefaultHandler(h("D1")) }},
		{"SetDefaultHandler replace", true, func() error { return e.SetDefaultHandler(h("D2")) }},
		{"SetDefaultHandler clear", true, func() error { return e.SetDefaultHandler(Handler{}) }},
		{"SetResultHandler", true, func() error { return e.SetResultHandler(func(_, r any, _ int) any { return r }) }},
		{"ImposeGuard", true, func() error { return e.ImposeGuard(bs[0], g, testModule) }},
		{"RemoveImposedGuards", true, func() error { return e.RemoveImposedGuards(bs[0], testModule) }},
		{"QuarantineBinding", false, func() error { d.quarantineBinding(bs[1]); return nil }},
		{"ReadmitBinding", false, func() error { d.readmitBinding(bs[1]); return nil }},
		{"QuarantineModule", false, func() error { d.quarantineModule(ext); return nil }},
		{"ReadmitModule", false, func() error { d.readmitModule(ext); return nil }},
		{"ForceDegradationLevel up", false, func() error { d.forceDegradationLevel(1); return nil }},
		{"ForceDegradationLevel down", false, func() error { d.forceDegradationLevel(0); return nil }},
		{"Trace on", false, func() error { e.Trace(tr); return nil }},
		{"Trace off", false, func() error { e.Trace(nil); return nil }},
		{"SetAdmission on", false, func() error { e.SetAdmission(&pol); return nil }},
		{"SetAdmission off", false, func() error { e.SetAdmission(nil); return nil }},
		{"fault probation and restore", false, func() error {
			if !d.faults.ledger.Observe(bs[3], fault.Record{Kind: fault.KindPanic}).Quarantine {
				return errors.New("ledger did not quarantine")
			}
			d.faults.quarantine(bs[3], fault.Action{Quarantine: true, Backoff: time.Millisecond})
			sim.Run(0)
			return nil
		}},
	} {
		before := cpu.Total(vtime.AccountEvents)
		if err := tc.op(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := cpu.Total(vtime.AccountEvents) - before
		var want vtime.Duration
		if tc.charged {
			want = model.Cost(vtime.PlanCompileBase) +
				model.Cost(vtime.PlanCompileBinding)*vtime.Duration(len(e.Bindings()))
		}
		if got != want {
			t.Errorf("%s charged %v to AccountEvents, want %v", tc.name, got, want)
		}
	}
	if x.Quarantined() || bs[1].Quarantined() || bs[3].Quarantined() {
		t.Error("an uncharged operation left a binding quarantined")
	}
}

// JournalID returns the binding's identity in the lifecycle journal
// (zero on an unjournaled dispatcher).
func (b *Binding) JournalID() uint64 {
	b.event.mu.Lock()
	defer b.event.mu.Unlock()
	return b.journalID
}

// Intrinsic reports whether this is the event's intrinsic handler.
func (b *Binding) Intrinsic() bool { return b.intrinsic }

// Degraded reports whether the overload controller has compiled the
// binding out of its event's dispatch plan at the current degradation
// level.
func (b *Binding) Degraded() bool { return b.degraded.Load() }

// ImposedGuards returns a snapshot of the authority-imposed guards.
func (b *Binding) ImposedGuards() []Guard {
	b.event.mu.Lock()
	defer b.event.mu.Unlock()
	return append([]Guard(nil), b.imposed...)
}
