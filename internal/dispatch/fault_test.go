package dispatch

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spin/internal/fault"
	"spin/internal/rtti"
	"spin/internal/vtime"
)

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// hasRecord reports whether the ledger ring holds a record of the given
// kind for the given handler name ("" matches any handler).
func hasRecord(l *fault.Ledger, kind fault.Kind, handler string) bool {
	for _, r := range l.Records() {
		if r.Kind == kind && (handler == "" || r.Handler == handler) {
			return true
		}
	}
	return false
}

// TestQuarantineProbationRelapse is the subsystem's acceptance drill, run
// under -race by `make race`: repeated injected panics in one
// handler under concurrent raises quarantine its binding (the plan is
// recompiled without it; the healthy handler keeps firing and no raise
// fails), probation re-admits it after backoff, a relapse re-quarantines
// it at the next level, and a clean probation restores it.
func TestQuarantineProbationRelapse(t *testing.T) {
	// The dispatcher runs in simulator mode, so the lifecycle timers
	// (backoff, probation) are virtual-time events that fire only when the
	// test steps the simulator: each state is held exactly until asserted,
	// however slow the host. Only the fault storm itself is real
	// concurrency.
	pol := fault.Policy{Budget: 3, Backoff: 300 * time.Millisecond}
	sim := vtime.NewSimulator(&vtime.Clock{})
	d := New(WithFaultPolicy(pol), WithSimulator(sim))
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word))

	var good atomic.Int64
	if _, err := e.Install(handler(voidProc("Good", rtti.Word), func(any, []any) any {
		good.Add(1)
		return nil
	})); err != nil {
		t.Fatal(err)
	}

	// The bad handler panics on every invocation while failing is set,
	// through the deterministic injection harness.
	inj := fault.NewInjector().PanicEvery("M.P/bad", 1, 0)
	var failing atomic.Bool
	failing.Store(true)
	inner := func(any, []any) any { return nil }
	wrapped := inj.Handler("M.P/bad", inner)
	bad, err := e.Install(handler(voidProc("Bad", rtti.Word), func(clo any, args []any) any {
		if failing.Load() {
			return wrapped(clo, args)
		}
		return inner(clo, args)
	}))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: concurrent raises until the bad binding is quarantined.
	// No raise may fail — the panics are absorbed as faults and the good
	// handler always fires.
	var raiseErrs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Raise1(7); err != nil {
					raiseErrs.Add(1)
					return
				}
			}
		}()
	}
	waitFor(t, bad.Quarantined, "bad binding quarantine")
	g0 := good.Load()
	waitFor(t, func() bool { return good.Load() > g0 }, "good handler to keep firing after quarantine")
	close(stop)
	wg.Wait()
	if n := raiseErrs.Load(); n != 0 {
		t.Fatalf("%d raises failed during fault storm", n)
	}
	if !hasRecord(d.FaultLedger(), fault.KindPanic, "Bad") {
		t.Error("no panic record for the bad handler in the ledger")
	}
	// With the raisers stopped, the binding sits in quarantine until the
	// backoff event runs: the published plan was recompiled without it.
	if st := bad.FaultState(); st != fault.Quarantined {
		t.Fatalf("state after storm = %v, want Quarantined", st)
	}
	if got := e.Plan().Steps(); got != 1 {
		t.Errorf("plan carries %d bindings after quarantine, want 1", got)
	}

	// Phase 2: the backoff timer re-admits the binding on probation and
	// recompiles it back in, synchronously within the simulator step.
	if !sim.Step() {
		t.Fatal("no readmission timer queued after quarantine")
	}
	if st := bad.FaultState(); st != fault.Probation {
		t.Fatalf("state after backoff = %v, want Probation", st)
	}
	if bad.Quarantined() {
		t.Error("binding still flagged quarantined on probation")
	}
	if got := e.Plan().Steps(); got != 2 {
		t.Errorf("plan carries %d bindings on probation, want 2", got)
	}

	// Phase 3: a single faulting invocation during probation relapses at
	// the next quarantine level: one fault on probation re-quarantines.
	if _, err := e.Raise1(7); err != nil {
		t.Fatalf("probation raise failed: %v", err)
	}
	if st := bad.FaultState(); st != fault.Quarantined {
		t.Fatalf("state after probation fault = %v, want Quarantined", st)
	}
	if lvl := d.FaultLedger().Level(bad); lvl != 1 {
		t.Errorf("relapse level = %d, want 1", lvl)
	}

	// Phase 4: the handler is fixed; the doubled backoff expires (stepping
	// past the first probation's now-stale restore timer, a no-op against a
	// re-quarantined binding), the second probation passes cleanly, and the
	// binding is restored to full health.
	failing.Store(false)
	for i := 0; bad.FaultState() != fault.Probation; i++ {
		if i > 4 || !sim.Step() {
			t.Fatalf("binding never re-entered probation; state = %v", bad.FaultState())
		}
	}
	if _, err := e.Raise1(7); err != nil {
		t.Fatalf("clean probation raise failed: %v", err)
	}
	sim.Run(10)
	if st := bad.FaultState(); st != fault.Healthy {
		t.Fatalf("final state = %v, want Healthy", st)
	}
}

// TestFaultPolicyOnZeroAlloc proves the recovery barriers compiled into a
// protected plan keep the no-fault raise path allocation-free, on the
// bypass, plan, and guarded shapes alike.
func TestFaultPolicyOnZeroAlloc(t *testing.T) {
	d := New(WithFaultPolicy(fault.DefaultPolicy()))

	direct := mustDefine(t, d, "M.Direct", rtti.Sig(nil, rtti.Word),
		WithIntrinsic(handler(voidProc("D", rtti.Word), func(any, []any) any { return nil })))

	multi := mustDefine(t, d, "M.Multi", rtti.Sig(nil, rtti.Word))
	for _, name := range []string{"H1", "H2"} {
		if _, err := multi.Install(handler(voidProc(name, rtti.Word), func(any, []any) any { return nil })); err != nil {
			t.Fatal(err)
		}
	}

	guarded := mustDefine(t, d, "M.Guarded", rtti.Sig(nil, rtti.Word))
	g := Guard{Proc: guardProc("G", rtti.Word), Fn: func(any, []any) bool { return true }}
	if _, err := guarded.Install(handler(voidProc("H", rtti.Word), func(any, []any) any { return nil }), WithGuard(g)); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		e    *Event
	}{{"direct", direct}, {"multi", multi}, {"guarded", guarded}} {
		if !tc.e.Plan().Protected() {
			t.Fatalf("%s: plan not compiled with protection", tc.name)
		}
		if allocs := testing.AllocsPerRun(200, func() { _, _ = tc.e.Raise1(7) }); allocs != 0 {
			t.Errorf("%s: protected raise allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
}

// TestEphemeralDeadlineCancellation: an EPHEMERAL handler overrunning its
// deadline is abandoned, its context is cancelled so it can stop
// cooperatively, and the overrun lands in the ledger as a deadline fault.
func TestEphemeralDeadlineCancellation(t *testing.T) {
	d := New(WithFaultPolicy(fault.Policy{Budget: 100, Backoff: time.Hour}))
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	proc := &rtti.Proc{Name: "Slow", Module: testModule, Sig: rtti.Sig(nil), Ephemeral: true}
	cancelled := make(chan struct{})
	h := Handler{Proc: proc, CtxFn: func(ctx context.Context, _ any, _ []any) any {
		<-ctx.Done()
		close(cancelled)
		return nil
	}}
	b, err := e.Install(h, Ephemeral(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise(); err != nil {
		t.Fatalf("raise of abandoned ephemeral failed: %v", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("handler context never cancelled after deadline")
	}
	if b.Terminations() == 0 || !b.Terminated() {
		t.Error("termination not accounted on the binding")
	}
	waitFor(t, func() bool { return hasRecord(d.FaultLedger(), fault.KindDeadline, "Slow") },
		"deadline fault record")
}

// TestAsyncPanicRecorded: an asynchronous handler panic is recovered by
// the spawn supervisor and recorded even in record-only mode (no policy),
// instead of crashing the process.
func TestAsyncPanicRecorded(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	if _, err := e.Install(handler(voidProc("Boom"), func(any, []any) any { panic("async boom") }), Async()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hasRecord(d.FaultLedger(), fault.KindPanic, "Boom") },
		"async panic record")
	recs := d.FaultLedger().Records()
	for _, r := range recs {
		if r.Kind == fault.KindPanic && r.Handler == "Boom" {
			if r.Value != "async boom" || r.Event != "M.P" || r.Module != testModule.Name() {
				t.Errorf("panic record misattributed: %+v", r)
			}
			if len(r.Stack) == 0 {
				t.Error("panic record carries no stack")
			}
		}
	}
}

// TestAsyncDeadlineWatchdog: WithDeadline arms a wall-clock watchdog on an
// asynchronous handler; overrun cancels the context and records the fault.
func TestAsyncDeadlineWatchdog(t *testing.T) {
	d := New(WithFaultPolicy(fault.Policy{Budget: 100, Backoff: time.Hour}))
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	cancelled := make(chan struct{})
	proc := voidProc("SlowAsync")
	h := Handler{Proc: proc, CtxFn: func(ctx context.Context, _ any, _ []any) any {
		<-ctx.Done()
		close(cancelled)
		return nil
	}}
	b, err := e.Install(h, Async(), WithDeadline(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("async handler context never cancelled")
	}
	waitFor(t, func() bool { return hasRecord(d.FaultLedger(), fault.KindDeadline, "SlowAsync") },
		"async deadline record")
	waitFor(t, b.Terminated, "binding terminated flag")
}

// TestOverrunThenPanicIsOneFault: an invocation its watchdog abandoned is
// accounted once, by the watchdog, even when it panics on its way out —
// EPHEMERAL and asynchronous alike: one deadline record, no panic record,
// one termination.
func TestOverrunThenPanicIsOneFault(t *testing.T) {
	for _, tc := range []struct {
		name string
		eph  bool
		opts []InstallOption
	}{
		{"ephemeral", true, []InstallOption{Ephemeral(5 * time.Millisecond)}},
		{"async", false, []InstallOption{Async(), WithDeadline(5 * time.Millisecond)}},
	} {
		d := New(WithFaultPolicy(fault.Policy{Budget: 100, Backoff: time.Hour}))
		e := mustDefine(t, d, "M.P", rtti.Sig(nil))
		proc := &rtti.Proc{Name: "LatePanic", Module: testModule, Sig: rtti.Sig(nil), Ephemeral: tc.eph}
		panicking := make(chan struct{})
		h := Handler{Proc: proc, CtxFn: func(ctx context.Context, _ any, _ []any) any {
			<-ctx.Done()
			close(panicking)
			panic("late")
		}}
		b, err := e.Install(h, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Raise(); err != nil {
			t.Fatalf("%s: raise: %v", tc.name, err)
		}
		select {
		case <-panicking:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: handler context never cancelled", tc.name)
		}
		// The panic reaches the supervisor after the watchdog's record; give
		// a second record time to appear.
		records := func() (n int) {
			for _, r := range d.FaultLedger().Records() {
				if r.Handler == "LatePanic" {
					n++
				}
			}
			return n
		}
		for stop := time.Now().Add(200 * time.Millisecond); time.Now().Before(stop); time.Sleep(time.Millisecond) {
			if n := records(); n > 1 {
				t.Fatalf("%s: %d ledger records for one overrun: %+v", tc.name, n, d.FaultLedger().Records())
			}
		}
		if records() != 1 || !hasRecord(d.FaultLedger(), fault.KindDeadline, "LatePanic") {
			t.Errorf("%s: ledger %+v, want one deadline record", tc.name, d.FaultLedger().Records())
		}
		if b.Terminations() != 1 {
			t.Errorf("%s: %d terminations, want 1", tc.name, b.Terminations())
		}
	}
}

// TestGuardPanicEvaluatesFalse: under enforcement a panicking out-of-line
// guard evaluates false (its handler is skipped), the raise proceeds, and
// the panic is recorded with guard origin.
func TestGuardPanicEvaluatesFalse(t *testing.T) {
	d := New(WithFaultPolicy(fault.Policy{Budget: 100, Backoff: time.Hour}))
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word))
	var guardedRan, plainRan atomic.Int64
	g := Guard{Proc: guardProc("BadGuard", rtti.Word), Fn: func(any, []any) bool { panic("guard boom") }}
	if _, err := e.Install(handler(voidProc("Guarded", rtti.Word), func(any, []any) any {
		guardedRan.Add(1)
		return nil
	}), WithGuard(g)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Install(handler(voidProc("Plain", rtti.Word), func(any, []any) any {
		plainRan.Add(1)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise1(1); err != nil {
		t.Fatalf("raise failed despite healthy second handler: %v", err)
	}
	if guardedRan.Load() != 0 || plainRan.Load() != 1 {
		t.Errorf("guarded ran %d (want 0), plain ran %d (want 1)", guardedRan.Load(), plainRan.Load())
	}
	recs := d.FaultLedger().Records()
	found := false
	for _, r := range recs {
		if r.Kind == fault.KindPanic && r.Origin == fault.OriginGuard {
			found = true
		}
	}
	if !found {
		t.Error("guard panic not recorded with guard origin")
	}
}

// TestPurityMonitorSurvivesEnforcement: the purity monitor's
// ErrGuardMutatedArgs verdict rejects the raise through the fault hook, so
// it reaches the raise point instead of being swallowed as an extension
// fault, and the ledger records no fault for it.
func TestPurityMonitorSurvivesEnforcement(t *testing.T) {
	d := New(WithPurityChecking(), WithFaultPolicy(fault.DefaultPolicy()))
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.RefAny))
	g := Guard{Proc: guardProc("Mutator", rtti.RefAny), Fn: func(_ any, args []any) bool {
		args[0] = "mutated"
		return true
	}}
	if _, err := e.Install(handler(voidProc("H", rtti.RefAny), func(any, []any) any { return nil }), WithGuard(g)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise("original"); !errors.Is(err, ErrGuardMutatedArgs) {
		t.Fatalf("err = %v, want ErrGuardMutatedArgs", err)
	}
	if n := d.FaultLedger().Total(); n != 0 {
		t.Errorf("the ledger recorded %d faults for a purity rejection, want 0", n)
	}
}

// TestUninstallForgetsLedgerEntry: uninstalling a quarantined binding
// drops its ledger entry, so the pending readmission timer is a no-op.
func TestUninstallForgetsLedgerEntry(t *testing.T) {
	d := New(WithFaultPolicy(fault.Policy{Budget: 1, Backoff: 10 * time.Millisecond}))
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	if _, err := e.Install(handler(voidProc("Good"), func(any, []any) any { return nil })); err != nil {
		t.Fatal(err)
	}
	b, err := e.Install(handler(voidProc("Bad"), func(any, []any) any { panic("x") }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, b.Quarantined, "quarantine")
	if err := e.Uninstall(b); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // readmission timer fires into the void
	if st := d.FaultLedger().State(b); st != fault.Healthy {
		t.Errorf("ledger state after uninstall = %v, want Healthy (forgotten)", st)
	}
	if e.Plan().Steps() != 1 {
		t.Error("uninstalled binding leaked back into the plan")
	}
}

// TestRecordOnlyModeDoesNotProtectPlans: without a policy the dispatcher
// compiles unprotected plans (zero-cost-off) and never quarantines.
func TestRecordOnlyModeDoesNotProtectPlans(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	if _, err := e.Install(handler(voidProc("H"), func(any, []any) any { return nil })); err != nil {
		t.Fatal(err)
	}
	if e.Plan().Protected() {
		t.Error("record-only dispatcher compiled a protected plan")
	}
	if d.FaultLedger().Policy().Enforcing() {
		t.Error("record-only ledger claims to be enforcing")
	}
}
