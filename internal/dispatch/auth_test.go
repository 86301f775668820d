package dispatch

import (
	"errors"
	"testing"

	"spin/internal/codegen"
	"spin/internal/rtti"
)

// The authorization tests reproduce Figure 3: MachineTrap installs an
// authorizer over its Syscall event which imposes a per-address-space
// guard on every handler installation.

var (
	trapModule  = rtti.NewModule("MachineTrap", "MachineTrap")
	emuModule   = rtti.NewModule("MachEmulator")
	spaceType   = rtti.NewRef("AddressSpace", nil)
	syscallSig  = rtti.Sig(nil, rtti.Word, rtti.Word) // (space-id, syscall-number)
	trapHandler = func(any, []any) any { return nil }
)

type space struct{ id uint64 }

func (s *space) RTTIType() rtti.Type { return spaceType }

func defineSyscallEvent(t *testing.T, d *Dispatcher) *Event {
	t.Helper()
	e, err := d.DefineEvent("MachineTrap.Syscall", syscallSig,
		WithIntrinsic(Handler{
			Proc: &rtti.Proc{Name: "MachineTrap.Syscall", Module: trapModule, Sig: syscallSig},
			Fn:   trapHandler,
		}))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestInstallAuthorizerRequiresAuthority(t *testing.T) {
	d := New()
	e := defineSyscallEvent(t, d)
	auth := func(req *AuthRequest) bool { return true }
	if err := e.InstallAuthorizer(auth, emuModule); !errors.Is(err, ErrNotAuthority) {
		t.Fatalf("foreign module accepted as authority: %v", err)
	}
	if err := e.InstallAuthorizer(auth, nil); !errors.Is(err, ErrNotAuthority) {
		t.Fatalf("nil proof accepted: %v", err)
	}
	if err := e.InstallAuthorizer(auth, trapModule); err != nil {
		t.Fatalf("rightful authority rejected: %v", err)
	}
}

func TestAuthorizerDeniesInstall(t *testing.T) {
	d := New()
	e := defineSyscallEvent(t, d)
	denied := 0
	_ = e.InstallAuthorizer(func(req *AuthRequest) bool {
		if req.Op == OpInstall && req.Requestor != trapModule {
			denied++
			return false
		}
		return true
	}, trapModule)
	h := Handler{Proc: &rtti.Proc{Name: "Emu.Syscall", Module: emuModule, Sig: syscallSig}, Fn: trapHandler}
	if _, err := e.Install(h); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
	if denied != 1 {
		t.Fatal("authorizer not consulted")
	}
}

func TestAuthorizerSeesRequestContext(t *testing.T) {
	d := New()
	e := defineSyscallEvent(t, d)
	var got *AuthRequest
	_ = e.InstallAuthorizer(func(req *AuthRequest) bool { got = req; return true }, trapModule)
	h := Handler{Proc: &rtti.Proc{Name: "Emu.Syscall", Module: emuModule, Sig: syscallSig}, Fn: trapHandler}
	if _, err := e.Install(h, WithCredential("password:xyzzy")); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Op != OpInstall || got.Event != e {
		t.Fatalf("request = %+v", got)
	}
	if got.Requestor != emuModule {
		t.Fatalf("requestor = %v", got.Requestor)
	}
	if got.Credential != "password:xyzzy" {
		t.Fatalf("credential = %v", got.Credential)
	}
}

func TestImposedGuardConfinesHandler(t *testing.T) {
	// Figure 3: the authorizer imposes a guard ensuring the handler only
	// sees system calls from its own address space.
	d := New()
	e := defineSyscallEvent(t, d)
	installingSpace := uint64(7)
	_ = e.InstallAuthorizer(func(req *AuthRequest) bool {
		if req.Op != OpInstall {
			return true
		}
		// ImposedSyscallGuard: Space(strand) = validSpace, with the
		// installing space passed as the guard's closure.
		gproc := &rtti.Proc{
			Name: "MachineTrap.ImposedSyscallGuard", Module: trapModule, Functional: true,
			Sig: rtti.Signature{Args: []rtti.Type{rtti.RefAny, rtti.Word, rtti.Word}, Result: rtti.Bool},
		}
		err := req.ImposeGuard(Guard{
			Proc:    gproc,
			Closure: installingSpace,
			Fn: func(validSpace any, args []any) bool {
				return args[0].(uint64) == validSpace.(uint64)
			},
		})
		return err == nil
	}, trapModule)

	fired := 0
	h := Handler{Proc: &rtti.Proc{Name: "Emu.Syscall", Module: emuModule, Sig: syscallSig},
		Fn: func(any, []any) any { fired++; return nil }}
	b, err := e.Install(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.ImposedGuards()) != 1 {
		t.Fatalf("imposed guards = %d", len(b.ImposedGuards()))
	}

	// A syscall from space 7 reaches the handler; one from space 9 does
	// not (and since the intrinsic also fires, no ErrNoHandler).
	if _, err := e.Raise(uint64(7), uint64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise(uint64(9), uint64(1)); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("handler fired %d times, want 1", fired)
	}
}

func TestAuthorizerAppliesOrderingConstraint(t *testing.T) {
	// §2.5: the authorizer may apply execution properties such as
	// ordering constraints to protect previously installed handlers.
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil), WithOwner(trapModule))
	_ = e.InstallAuthorizer(func(req *AuthRequest) bool {
		if req.Op == OpInstall {
			_ = req.SetOrder(Order{Kind: OrderFirst})
		}
		return true
	}, trapModule)
	var trace []string
	mk := func(label string) Handler {
		return handler(voidProc("H."+label), func(any, []any) any {
			trace = append(trace, label)
			return nil
		})
	}
	_, _ = e.Install(mk("a"))
	_, _ = e.Install(mk("b"), Last()) // authorizer overrides to First
	if _, err := e.Raise(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0] != "b" {
		t.Fatalf("trace = %v", trace)
	}
}

func TestAuthorizerConsultedOnUninstall(t *testing.T) {
	d := New()
	e := defineSyscallEvent(t, d)
	locked := false
	_ = e.InstallAuthorizer(func(req *AuthRequest) bool {
		return !(req.Op == OpUninstall && locked)
	}, trapModule)
	h := Handler{Proc: &rtti.Proc{Name: "Emu.Syscall", Module: emuModule, Sig: syscallSig}, Fn: trapHandler}
	b, err := e.Install(h)
	if err != nil {
		t.Fatal(err)
	}
	locked = true
	if err := e.Uninstall(b); !errors.Is(err, ErrDenied) {
		t.Fatalf("uninstall err = %v", err)
	}
	locked = false
	if err := e.Uninstall(b); err != nil {
		t.Fatalf("uninstall: %v", err)
	}
}

func TestAuthorizerConsultedOnDefaultAndResult(t *testing.T) {
	d := New()
	e, _ := d.DefineEvent("M.F", rtti.Sig(rtti.Bool), WithOwner(trapModule))
	denyAll := func(req *AuthRequest) bool { return false }
	_ = e.InstallAuthorizer(denyAll, trapModule)
	h := handler(resultProc("Def", rtti.Bool), func(any, []any) any { return true })
	if err := e.SetDefaultHandler(h); !errors.Is(err, ErrDenied) {
		t.Fatalf("default err = %v", err)
	}
	if err := e.SetResultHandler(func(a, r any, i int) any { return r }); !errors.Is(err, ErrDenied) {
		t.Fatalf("result err = %v", err)
	}
}

func TestImposeGuardOutsideAuthorizer(t *testing.T) {
	d := New()
	e := defineSyscallEvent(t, d)
	fired := 0
	h := Handler{Proc: &rtti.Proc{Name: "Emu.Syscall", Module: emuModule, Sig: syscallSig},
		Fn: func(any, []any) any { fired++; return nil }}
	b, err := e.Install(h)
	if err != nil {
		t.Fatal(err)
	}
	g := Guard{Pred: codegen.False()}
	// Only the authority may impose.
	if err := e.ImposeGuard(b, g, emuModule); !errors.Is(err, ErrNotAuthority) {
		t.Fatalf("foreign impose err = %v", err)
	}
	if err := e.ImposeGuard(b, g, trapModule); err != nil {
		t.Fatalf("impose: %v", err)
	}
	// The imposed guard now blocks the handler; only the intrinsic fires.
	if _, err := e.Raise(uint64(1), uint64(2)); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("imposed guard did not confine handler")
	}
	// And the authority can lift it again.
	if err := e.RemoveImposedGuards(b, trapModule); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise(uint64(1), uint64(2)); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatal("imposed guard not removed")
	}
	if err := e.RemoveImposedGuards(b, emuModule); !errors.Is(err, ErrNotAuthority) {
		t.Fatalf("foreign remove err = %v", err)
	}
}

// TestImposedGuardChangesReachNextRaise pins the lowered-binding cache
// (Binding.lowered) to its one invalidation rule: a recompile reuses every
// binding's lowering except the one whose imposed guards just changed. Both
// ways of changing them after installation — ImposeGuard and
// RemoveImposedGuards — must change what the very next raise evaluates.
func TestImposedGuardChangesReachNextRaise(t *testing.T) {
	d := New()
	e := defineSyscallEvent(t, d)
	install := func(name string, fn HandlerFn) *Binding {
		b, err := e.Install(Handler{
			Proc: &rtti.Proc{Name: name, Module: emuModule, Sig: syscallSig}, Fn: fn})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bFired := 0
	b := install("Emu.A", func(any, []any) any { bFired++; return nil })
	other := install("Emu.B", trapHandler)
	evals, pass := 0, true
	g := Guard{
		Proc: &rtti.Proc{Name: "MachineTrap.Confine", Module: trapModule,
			Sig: rtti.Sig(rtti.Bool, rtti.Word, rtti.Word), Functional: true},
		Fn: func(any, []any) bool { evals++; return pass },
	}
	// raise reports how often the imposed guard ran and whether b fired.
	raise := func() (int, bool) {
		t.Helper()
		evals = 0
		before := bFired
		if _, err := e.Raise(uint64(1), uint64(2)); err != nil {
			t.Fatal(err)
		}
		return evals, bFired > before
	}
	if n, fired := raise(); n != 0 || !fired {
		t.Fatalf("before any imposition: %d guard evaluations, fired=%v", n, fired)
	}

	reused := other.lowered
	if err := e.ImposeGuard(b, g, trapModule); err != nil {
		t.Fatal(err)
	}
	if other.lowered != reused || reused == nil {
		t.Fatal("imposing on one binding re-lowered another")
	}
	if n, fired := raise(); n != 1 || !fired {
		t.Fatalf("after ImposeGuard: %d guard evaluations, fired=%v", n, fired)
	}
	pass = false
	if n, fired := raise(); n != 1 || fired {
		t.Fatalf("imposed guard failing: %d guard evaluations, fired=%v", n, fired)
	}

	if err := e.RemoveImposedGuards(b, trapModule); err != nil {
		t.Fatal(err)
	}
	if n, fired := raise(); n != 0 || !fired {
		t.Fatalf("after RemoveImposedGuards: %d guard evaluations, fired=%v", n, fired)
	}
}

func TestImposeGuardErrors(t *testing.T) {
	d := New()
	e := defineSyscallEvent(t, d)
	g := Guard{Pred: codegen.True()}
	if err := e.ImposeGuard(nil, g, trapModule); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("nil binding err = %v", err)
	}
	other := mustDefine(t, d, "Other.E", rtti.Sig(nil))
	ob, _ := other.Install(handler(voidProc("H"), func(any, []any) any { return nil }))
	if err := e.ImposeGuard(ob, g, trapModule); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("foreign binding err = %v", err)
	}
	if err := e.RemoveImposedGuards(nil, trapModule); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("nil remove err = %v", err)
	}
}

func TestAuthorizerEphemeralInspection(t *testing.T) {
	// §2.6: an authorizer can determine whether a handler is EPHEMERAL
	// and refuse installation if it is not.
	d := New()
	e := mustDefine(t, d, "Net.PacketArrived", rtti.Sig(nil, rtti.Word), WithOwner(trapModule))
	_ = e.InstallAuthorizer(func(req *AuthRequest) bool {
		return req.Op != OpInstall || req.IsEphemeral()
	}, trapModule)

	plain := handler(voidProc("Plain", rtti.Word), func(any, []any) any { return nil })
	if _, err := e.Install(plain); !errors.Is(err, ErrDenied) {
		t.Fatalf("non-ephemeral accepted: %v", err)
	}
	eph := Handler{
		Proc: &rtti.Proc{Name: "Eph", Module: emuModule, Sig: rtti.Sig(nil, rtti.Word), Ephemeral: true},
		Fn:   func(any, []any) any { return nil },
	}
	if _, err := e.Install(eph, Ephemeral(0)); err != nil {
		t.Fatalf("ephemeral rejected: %v", err)
	}
}

func TestEventWithoutAuthorityRejectsAuthorizer(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	err := e.InstallAuthorizer(func(req *AuthRequest) bool { return true }, trapModule)
	if !errors.Is(err, ErrNotAuthority) {
		t.Fatalf("err = %v", err)
	}
}

func TestAuthRequestHelpersWithoutBinding(t *testing.T) {
	r := &AuthRequest{Op: OpSetResult}
	if err := r.ImposeGuard(Guard{Pred: codegen.True()}); err == nil {
		t.Fatal("ImposeGuard without binding accepted")
	}
	if err := r.SetOrder(Order{Kind: OrderFirst}); err == nil {
		t.Fatal("SetOrder without binding accepted")
	}
	if r.IsEphemeral() {
		t.Fatal("IsEphemeral without binding must be false")
	}
}
