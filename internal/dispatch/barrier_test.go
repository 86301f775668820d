package dispatch

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spin/internal/fault"
	"spin/internal/journal"
	"spin/internal/rtti"
	"spin/internal/vtime"
)

// hardenedEvent defines an event on a dispatcher with the fault policy and
// the journal on — ctl_churn's configuration, with a budget no test
// exhausts — carrying n bindings behind one out-of-line closure guard each.
func hardenedEvent(t *testing.T, n int, opts ...Option) (*Event, Handler, Guard) {
	t.Helper()
	j := journal.New(journal.Config{Sink: journal.NewMemSink(), SampleRaises: 1024, FlushInterval: -1})
	t.Cleanup(func() { _ = j.Close() })
	d := New(append([]Option{WithFaultPolicy(fault.Policy{Budget: 1 << 20}), WithJournal(j)}, opts...)...)
	e := mustDefine(t, d, "Hard.Event", rtti.Sig(nil, rtti.Word, rtti.Word))
	var cell atomic.Uint64
	g := Guard{Proc: guardProc("Hard.G", rtti.Word, rtti.Word), Fn: func(any, []any) bool { return cell.Load() == 0 }}
	h := handler(voidProc("Hard.H", rtti.Word, rtti.Word), func(any, []any) any { return nil })
	for i := 0; i < n; i++ {
		if _, err := e.Install(h, WithGuard(g)); err != nil {
			t.Fatal(err)
		}
	}
	return e, h, g
}

// TestHardenedStencilZeroAlloc: a hardened plan runs on the stencil behind
// its per-frame barrier, and neither the single raise nor a packet train
// allocates; a raise whose handler panics allocates no more than the same
// raise on a metered event, the observed walk behind the same barrier (the
// stack capture and what the ledger keeps of it).
func TestHardenedStencilZeroAlloc(t *testing.T) {
	const n = 33
	e, _, g := hardenedEvent(t, n)
	if got := e.Plan().Executor(false); got != "stencil[void,guarded,barrier]" {
		t.Fatalf("hardened plan runs on %s", got)
	}
	var a1, a2 any = uint64(1), uint64(2)
	if allocs := testing.AllocsPerRun(500, func() { _, _ = e.Raise2(a1, a2) }); allocs != 0 {
		t.Errorf("hardened raise allocates %.1f/op, want 0", allocs)
	}
	const train = 16
	flat := make([]any, 0, 2*train)
	for i := 0; i < train; i++ {
		flat = append(flat, a1, a2)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if out := e.RaiseBatch2(flat); out.Raised != train || out.Fired != train*n {
			t.Fatalf("outcome %+v", out)
		}
	}); allocs != 0 {
		t.Errorf("hardened RaiseBatch2 train of %d allocates %.1f, want 0", train, allocs)
	}

	panicking := func(e *Event) float64 {
		bad := handler(voidProc("Hard.Bad", rtti.Word, rtti.Word), func(any, []any) any { panic("boom") })
		if _, err := e.Install(bad, WithGuard(g)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() { _, _ = e.Raise2(a1, a2) })
	}
	ref, _, _ := hardenedEvent(t, n, WithCPU(vtime.NewCPU(&vtime.Clock{}, vtime.AlphaModel())))
	stencil, metered := panicking(e), panicking(ref)
	t.Logf("a panicking raise allocates %.1f on the stencil, %.1f metered", stencil, metered)
	if stencil > metered {
		t.Errorf("a panicking raise allocates %.1f on the stencil, %.1f metered", stencil, metered)
	}
}

// TestCompileMemoAllocBudget: an install on a long handler list recompiles
// the plan by copying the residents' memoised lowerings, so its allocations
// do not grow with the list (they were two per resident binding).
func TestCompileMemoAllocBudget(t *testing.T) {
	cycle := func(resident int) float64 {
		e, h, g := hardenedEvent(t, resident)
		return testing.AllocsPerRun(100, func() {
			b, err := e.Install(h, WithGuard(g))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Uninstall(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := cycle(32), cycle(128)
	t.Logf("install+uninstall allocates %.1f with 32 residents, %.1f with 128", small, large)
	if small > 24 {
		t.Errorf("install+uninstall on a 32-binding event allocates %.1f, budget 24", small)
	}
	if large > small+2 {
		t.Errorf("allocations grow with the handler list: %.1f at 32 residents, %.1f at 128", small, large)
	}
}

// TestStencilFaultOnUninstalledBindingLeavesReplayableJournal is PR 15's
// hazard on the stencil: one of several guarded handlers uninstalls itself
// and then panics, exhausting its budget after it has left the event. The
// frame finishes on the plan it loaded, the barrier charges the departed
// binding, and the journal must still replay.
func TestStencilFaultOnUninstalledBindingLeavesReplayableJournal(t *testing.T) {
	sink := journal.NewMemSink()
	j := journal.New(journal.Config{Sink: sink, FlushInterval: -1})
	sim := vtime.NewSimulator(&vtime.Clock{})
	d := New(WithJournal(j), WithSimulator(sim),
		WithFaultPolicy(fault.Policy{Budget: 1, Backoff: time.Millisecond}))
	e := mustDefine(t, d, "F.Gone", rtti.Sig(nil, rtti.Word))
	g := Guard{Proc: guardProc("G", rtti.Word), Fn: func(any, []any) bool { return true }}
	ran := 0
	stay := handler(voidProc("Stayer", rtti.Word), func(any, []any) any { ran++; return nil })
	if _, err := e.Install(stay, WithGuard(g)); err != nil {
		t.Fatal(err)
	}
	var self *Binding
	quit := 0
	self, err := e.Install(handler(voidProc("Quitter", rtti.Word), func(any, []any) any {
		quit++
		if err := e.Uninstall(self); err != nil {
			t.Errorf("leaving the event: %v", err)
		}
		panic("after uninstall")
	}), WithGuard(g))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Install(stay, WithGuard(g)); err != nil {
		t.Fatal(err)
	}
	if got := e.Plan().Executor(false); !strings.HasSuffix(got, ",barrier]") {
		t.Fatalf("plan runs on %s, want a barrier stencil", got)
	}
	if _, err := e.Raise1(uint64(1)); err != nil {
		t.Fatalf("Raise1: %v", err)
	}
	sim.Run(0) // any backoff or probation timer the fault armed
	if ran != 2 {
		t.Errorf("%d of the 2 healthy handlers ran around the panic", ran)
	}
	if s := e.Stats(); quit != 1 || s.Fired != 3 || self.Quarantined() || d.FaultLedger().State(self) != fault.Healthy {
		t.Errorf("departed binding: fired %d (event %d of 3), quarantined=%v, ledger state %v",
			quit, s.Fired, self.Quarantined(), d.FaultLedger().State(self))
	}
	if !hasRecord(d.FaultLedger(), fault.KindPanic, "Quitter") {
		t.Error("the panic did not reach the ledger")
	}
	j.Flush()
	for _, rec := range journal.Scan(sink.Bytes()).SealedRecords() {
		if rec.Kind != journal.KindInstall && rec.Kind != journal.KindUninstall {
			t.Errorf("journal holds %v for binding %d after its uninstall", rec.Kind, rec.ID)
		}
	}
	if err := replayIntoTwin(t, sink.Bytes(), "F.Gone"); err != nil {
		t.Fatalf("journal does not replay: %v", err)
	}
}
