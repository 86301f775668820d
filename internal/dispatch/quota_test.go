package dispatch

import (
	"errors"
	"testing"

	"spin/internal/codegen"
	"spin/internal/rtti"
)

func TestPerModuleQuota(t *testing.T) {
	d := New()
	d.SetQuotas(2, 0)
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	h := handler(voidProc("H"), func(any, []any) any { return nil })

	b1, err := e.Install(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Install(h); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Install(h); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third install: %v", err)
	}
	// Accounting is per module: another module still has headroom.
	other := rtti.NewModule("Other")
	oh := Handler{Proc: &rtti.Proc{Name: "O.H", Module: other, Sig: rtti.Sig(nil)},
		Fn: func(any, []any) any { return nil }}
	if _, err := e.Install(oh); err != nil {
		t.Fatalf("other module denied: %v", err)
	}
	// Uninstalling releases the quota.
	if err := e.Uninstall(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Install(h); err != nil {
		t.Fatalf("install after release: %v", err)
	}
	total, mine := d.Installed(testModule)
	if total != 3 || mine != 2 {
		t.Fatalf("accounting: total=%d mine=%d", total, mine)
	}
}

func TestQuotaSpansEvents(t *testing.T) {
	// The quota bounds a module's installations across ALL events — the
	// §2.6 concern is total kernel memory, not per-event counts.
	d := New()
	d.SetQuotas(2, 0)
	e1 := mustDefine(t, d, "M.P1", rtti.Sig(nil))
	e2 := mustDefine(t, d, "M.P2", rtti.Sig(nil))
	h := handler(voidProc("H"), func(any, []any) any { return nil })
	if _, err := e1.Install(h); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Install(h); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Install(h); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestGlobalHandlerLimit(t *testing.T) {
	// The global ceiling — the analog of denying installations when kernel
	// memory runs low — is the runtime SetQuotas limit.
	d := New()
	d.SetQuotas(0, 3)
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	mods := []*rtti.Module{rtti.NewModule("A"), rtti.NewModule("B"),
		rtti.NewModule("C"), rtti.NewModule("D")}
	installed := 0
	var lastErr error
	for _, m := range mods {
		h := Handler{Proc: &rtti.Proc{Name: "H", Module: m, Sig: rtti.Sig(nil)},
			Fn: func(any, []any) any { return nil }}
		if _, err := e.Install(h); err != nil {
			lastErr = err
		} else {
			installed++
		}
	}
	if installed != 3 || !errors.Is(lastErr, ErrQuotaExceeded) {
		t.Fatalf("installed=%d err=%v", installed, lastErr)
	}
}

func TestIntrinsicExemptFromQuota(t *testing.T) {
	d := New()
	d.SetQuotas(1, 1)
	// Defining events with intrinsic handlers never hits the quota.
	for _, name := range []string{"M.P1", "M.P2", "M.P3"} {
		_, err := d.DefineEvent(name, rtti.Sig(nil), WithIntrinsic(handler(
			voidProc(name), func(any, []any) any { return nil })))
		if err != nil {
			t.Fatalf("intrinsic define hit quota: %v", err)
		}
	}
	total, _ := d.Installed(testModule)
	if total != 0 {
		t.Fatalf("intrinsics were accounted: total=%d", total)
	}
}

func TestDeniedInstallDoesNotLeakQuota(t *testing.T) {
	d := New()
	d.SetQuotas(1, 0)
	e := mustDefine(t, d, "M.P", rtti.Sig(nil), WithOwner(testModule))
	_ = e.InstallAuthorizer(func(req *AuthRequest) bool { return false }, testModule)
	h := handler(voidProc("H"), func(any, []any) any { return nil })
	if _, err := e.Install(h); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
	// The denied installation must not consume the quota.
	_ = e.InstallAuthorizer(func(req *AuthRequest) bool { return true }, testModule)
	if _, err := e.Install(h); err != nil {
		t.Fatalf("quota leaked by denied install: %v", err)
	}
}

func TestUnlimitedByDefault(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	h := handler(voidProc("H"), func(any, []any) any { return nil })
	for i := 0; i < 200; i++ {
		if _, err := e.Install(h); err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
}

func TestGuardReorderingShortCircuits(t *testing.T) {
	// §2.3: guard purity lets the dispatcher reorder evaluation. A cheap
	// inline predicate installed AFTER an expensive out-of-line guard
	// still evaluates first; when it fails, the expensive guard is never
	// called.
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word))
	expensiveCalls := 0
	expensive := Guard{
		Proc: &rtti.Proc{Name: "Slow", Module: testModule, Functional: true,
			Sig: rtti.Sig(rtti.Bool, rtti.Word)},
		Fn: func(any, []any) bool { expensiveCalls++; return true },
	}
	cheap := Guard{Pred: codegen.ArgEq(0, 80)}
	_, err := e.Install(handler(voidProc("H", rtti.Word), func(any, []any) any { return nil }),
		WithGuard(expensive), WithGuard(cheap))
	if err != nil {
		t.Fatal(err)
	}
	// Non-matching raise: the predicate fails first, sparing the call.
	_, _ = e.Raise(uint64(443))
	if expensiveCalls != 0 {
		t.Fatalf("expensive guard called %d times despite failing predicate", expensiveCalls)
	}
	// Matching raise: both evaluate, handler fires.
	if _, err := e.Raise(uint64(80)); err != nil {
		t.Fatal(err)
	}
	if expensiveCalls != 1 {
		t.Fatalf("expensive guard calls = %d", expensiveCalls)
	}
}

// Quotas returns the current installation quota limits (zero =
// unlimited).
func (d *Dispatcher) Quotas() (perModule, global int) {
	d.quota.mu.Lock()
	defer d.quota.mu.Unlock()
	return d.quota.perModule, d.quota.global
}
