package dispatch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"spin/internal/codegen"
	"spin/internal/rtti"
)

// Tests for the zero-allocation, multicore-scalable raise fast path: the
// cached per-event Env, the arity-specialized Raise0..Raise5 entry points
// with pooled argument frames, and the striped statistics counters.

var fastMod = rtti.NewModule("RaiseFast")

func fastSig(n int) rtti.Signature {
	ts := make([]rtti.Type, n)
	for i := range ts {
		ts[i] = rtti.Word
	}
	return rtti.Sig(nil, ts...)
}

func fastHandler(n int) Handler {
	return Handler{
		Proc: &rtti.Proc{Name: "RaiseFast.H", Module: fastMod, Sig: fastSig(n)},
		Fn:   func(any, []any) any { return nil },
	}
}

// TestRaiseUnmeteredDispatcher is the nil-CPU consistency check: a raise on
// a dispatcher without a meter must work, keep counting statistics, and
// accumulate no virtual time.
func TestRaiseUnmeteredDispatcher(t *testing.T) {
	d := New() // no WithCPU: d.cpu is nil
	if d.CPU() != nil {
		t.Fatal("expected unmetered dispatcher")
	}
	ev, err := d.DefineEvent("Fast.Unmetered", fastSig(1),
		WithIntrinsic(fastHandler(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ev.Raise(uint64(i)); err != nil {
			t.Fatalf("raise %d: %v", i, err)
		}
	}
	if _, err := ev.Raise1(uint64(9)); err != nil {
		t.Fatalf("Raise1: %v", err)
	}
	st := ev.Stats()
	if st.Raised != 6 || st.Fired != 6 {
		t.Fatalf("stats = %+v, want Raised=6 Fired=6", st)
	}
	if st.Time != 0 {
		t.Fatalf("unmetered event accumulated virtual time %v", st.Time)
	}
}

// TestRaiseBypassZeroAllocs asserts the single-intrinsic bypass raises with
// zero heap allocations, both through the generic variadic path (with a
// caller-owned argument vector) and through the arity-specialized path.
func TestRaiseBypassZeroAllocs(t *testing.T) {
	d := New()
	ev, err := d.DefineEvent("Fast.Bypass", fastSig(2), WithIntrinsic(fastHandler(2)))
	if err != nil {
		t.Fatal(err)
	}
	av := []any{uint64(1), uint64(2)}
	if n := testing.AllocsPerRun(1000, func() { _, _ = ev.Raise(av...) }); n != 0 {
		t.Errorf("bypass Raise(av...) allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _, _ = ev.Raise2(uint64(1), uint64(2)) }); n != 0 {
		t.Errorf("bypass Raise2 allocates %v/op, want 0", n)
	}
}

// TestRaiseInlinePlanZeroAllocs asserts a guarded fully-inline dispatch
// plan (the Table 1 inline configuration) raises with zero heap
// allocations.
func TestRaiseInlinePlanZeroAllocs(t *testing.T) {
	d := New()
	ev, err := d.DefineEvent("Fast.Inline", fastSig(2))
	if err != nil {
		t.Fatal(err)
	}
	var cell atomic.Uint64
	for i := 0; i < 5; i++ {
		if _, err := ev.Install(Handler{
			Proc:   &rtti.Proc{Name: "RaiseFast.I", Module: fastMod, Sig: fastSig(2)},
			Inline: codegen.Nop(),
		}, WithGuard(Guard{Pred: codegen.GlobalEq(&cell, 0)})); err != nil {
			t.Fatal(err)
		}
	}
	av := []any{uint64(1), uint64(2)}
	if n := testing.AllocsPerRun(1000, func() { _, _ = ev.Raise(av...) }); n != 0 {
		t.Errorf("inline plan Raise(av...) allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _, _ = ev.Raise2(uint64(1), uint64(2)) }); n != 0 {
		t.Errorf("inline plan Raise2 allocates %v/op, want 0", n)
	}
	st := ev.Stats()
	if st.Fired == 0 {
		t.Fatal("handlers never fired")
	}
}

// TestRaiseOutOfLinePlanZeroAllocs asserts the out-of-line (no-inline)
// unrolled loop also raises without allocation: synchronous handlers are
// called directly, not through a per-step closure.
func TestRaiseOutOfLinePlanZeroAllocs(t *testing.T) {
	d := New()
	ev, err := d.DefineEvent("Fast.OutOfLine", fastSig(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ev.Install(fastHandler(1)); err != nil {
			t.Fatal(err)
		}
	}
	av := []any{uint64(7)}
	if n := testing.AllocsPerRun(1000, func() { _, _ = ev.Raise(av...) }); n != 0 {
		t.Errorf("out-of-line Raise(av...) allocates %v/op, want 0", n)
	}
}

// TestSpecializedExecutorZeroAllocs asserts the remaining specialized
// executor shapes raise with zero heap allocations: the guarded bypass
// (single guarded straight-line step), result folding over out-of-line
// handlers, a default-handler firing, and the arity-any executor beyond
// the shape-specialized range.
func TestSpecializedExecutorZeroAllocs(t *testing.T) {
	d := New()

	// Guarded bypass: one guarded inline handler.
	gb, err := d.DefineEvent("Fast.GuardedBypass", fastSig(1))
	if err != nil {
		t.Fatal(err)
	}
	var cell atomic.Uint64
	if _, err := gb.Install(Handler{
		Proc:   &rtti.Proc{Name: "RaiseFast.GB", Module: fastMod, Sig: fastSig(1)},
		Inline: codegen.Nop(),
	}, WithGuard(Guard{Pred: codegen.GlobalEq(&cell, 0)})); err != nil {
		t.Fatal(err)
	}
	if !gb.Plan().GuardedBypass() {
		t.Fatal("single guarded inline handler should compile to the guarded bypass")
	}
	if n := testing.AllocsPerRun(1000, func() { _, _ = gb.Raise1(uint64(1)) }); n != 0 {
		t.Errorf("guarded bypass allocates %v/op, want 0", n)
	}

	// Result fold over out-of-line handlers.
	rf, err := d.DefineEvent("Fast.ResultFold", rtti.Sig(rtti.Word, rtti.Word))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v := uint64(i)
		if _, err := rf.Install(Handler{
			Proc: &rtti.Proc{Name: "RaiseFast.RF", Module: fastMod, Sig: rtti.Sig(rtti.Word, rtti.Word)},
			Fn:   func(any, []any) any { return v },
		}, WithGuard(Guard{Pred: codegen.GlobalEq(&cell, 0)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := rf.SetResultHandler(func(acc, res any, index int) any {
		if index == 0 {
			return res
		}
		return acc.(uint64) + res.(uint64)
	}); err != nil {
		t.Fatal(err)
	}
	if got := rf.Plan().Executor(false); got != "stencil[fold,guarded]" {
		t.Fatalf("result-fold plan runs %s, want the plain stencil", got)
	}
	if n := testing.AllocsPerRun(1000, func() { _, _ = rf.Raise1(uint64(1)) }); n != 0 {
		t.Errorf("result fold allocates %v/op, want 0", n)
	}
	if res, err := rf.Raise1(uint64(1)); err != nil || res != uint64(0+1+2) {
		t.Fatalf("result fold = %v, %v; want 3", res, err)
	}

	// Arity-any executor: arity 6 exceeds the shape-specialized range.
	wide, err := d.DefineEvent("Fast.Wide", fastSig(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := wide.Install(Handler{
			Proc:   &rtti.Proc{Name: "RaiseFast.W", Module: fastMod, Sig: fastSig(6)},
			Inline: codegen.Nop(),
		}, WithGuard(Guard{Pred: codegen.GlobalEq(&cell, 0)})); err != nil {
			t.Fatal(err)
		}
	}
	if got := wide.Plan().Executor(false); got != "stencil[void,guarded]" {
		t.Fatalf("arity-6 plan runs %s, want the plain stencil", got)
	}
	av := []any{uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6)}
	if n := testing.AllocsPerRun(1000, func() { _, _ = wide.Raise(av...) }); n != 0 {
		t.Errorf("arity-any executor allocates %v/op, want 0", n)
	}
}

// TestArityRaiseSemantics checks every arity entry point against the
// variadic path: same argument values delivered, same errors surfaced.
func TestArityRaiseSemantics(t *testing.T) {
	for arity := 0; arity <= 5; arity++ {
		t.Run(fmt.Sprintf("arity=%d", arity), func(t *testing.T) {
			d := New()
			var got []any
			ev, err := d.DefineEvent("Fast.Arity", fastSig(arity),
				WithIntrinsic(Handler{
					Proc: &rtti.Proc{Name: "RaiseFast.A", Module: fastMod, Sig: fastSig(arity)},
					Fn: func(_ any, args []any) any {
						got = append([]any(nil), args...)
						return nil
					},
				}))
			if err != nil {
				t.Fatal(err)
			}
			want := make([]any, arity)
			for i := range want {
				want[i] = uint64(100 + i)
			}
			switch arity {
			case 0:
				_, err = ev.Raise0()
			case 1:
				_, err = ev.Raise1(want[0])
			case 2:
				_, err = ev.Raise2(want[0], want[1])
			case 3:
				_, err = ev.Raise3(want[0], want[1], want[2])
			case 4:
				_, err = ev.Raise4(want[0], want[1], want[2], want[3])
			case 5:
				_, err = ev.Raise5(want[0], want[1], want[2], want[3], want[4])
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != arity {
				t.Fatalf("handler saw %d args, want %d", len(got), arity)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("arg %d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestArityRaiseWrongArity confirms the specialized entry points still
// enforce the signature arity like the variadic path does.
func TestArityRaiseWrongArity(t *testing.T) {
	d := New()
	ev, err := d.DefineEvent("Fast.WrongArity", fastSig(2), WithIntrinsic(fastHandler(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Raise1(uint64(1)); err == nil {
		t.Fatal("Raise1 on a two-argument event should fail")
	}
	if _, err := ev.Raise3(uint64(1), uint64(2), uint64(3)); err == nil {
		t.Fatal("Raise3 on a two-argument event should fail")
	}
}

// TestArityRaiseAsyncEvent confirms the fast path routes asynchronous
// events through RaiseAsync, exactly as the variadic Raise does.
func TestArityRaiseAsyncEvent(t *testing.T) {
	ran := make(chan []any, 1)
	d := New(WithSpawner(func(fn func()) { fn() }))
	ev, err := d.DefineEvent("Fast.AsyncEvent", fastSig(1), AsAsync(),
		WithIntrinsic(Handler{
			Proc: &rtti.Proc{Name: "RaiseFast.AE", Module: fastMod, Sig: fastSig(1)},
			Fn: func(_ any, args []any) any {
				ran <- append([]any(nil), args...)
				return nil
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Raise1(uint64(42)); err != nil {
		t.Fatal(err)
	}
	got := <-ran
	if len(got) != 1 || got[0] != uint64(42) {
		t.Fatalf("async handler saw %v, want [42]", got)
	}
}

// TestArityRaiseAsyncHandlerRetainsArgs is the pooled-buffer safety
// property: when the plan contains an asynchronous handler, the argument
// slice may be read after the raise returns, so the fast path must hand it
// a private copy instead of recycling the pooled frame. The flat batch
// entry points borrow their caller's slice the same way, on such a plan and
// on an asynchronous event: the caller reuses it as soon as the call
// returns. A deferred spawner maximizes the window between raise completion
// and handler execution.
func TestArityRaiseAsyncHandlerRetainsArgs(t *testing.T) {
	var pending []func()
	d := New(WithSpawner(func(fn func()) { pending = append(pending, fn) }))
	ev, err := d.DefineEvent("Fast.Retain", fastSig(1), WithIntrinsic(fastHandler(1)))
	if err != nil {
		t.Fatal(err)
	}
	var seen []uint64
	if _, err := ev.Install(Handler{
		Proc: &rtti.Proc{Name: "RaiseFast.R", Module: fastMod, Sig: fastSig(1)},
		Fn: func(_ any, args []any) any {
			seen = append(seen, args[0].(uint64))
			return nil
		},
	}, Async()); err != nil {
		t.Fatal(err)
	}
	if !ev.Plan().RetainsArgs() {
		t.Fatal("plan with an async handler must report RetainsArgs")
	}
	const rounds = 16
	for i := 0; i < rounds; i++ {
		if _, err := ev.Raise1(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Then as batches: a retaining plan, and an asynchronous event.
	asyncEv, err := d.DefineEvent("Fast.RetainAsync", fastSig(1), AsAsync())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := asyncEv.Install(Handler{
		Proc: &rtti.Proc{Name: "RaiseFast.RA", Module: fastMod, Sig: fastSig(1)},
		Fn: func(_ any, args []any) any {
			seen = append(seen, args[0].(uint64))
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	flat := make([]any, rounds)
	for _, e := range []*Event{ev, asyncEv} {
		for i := range flat {
			flat[i] = uint64(len(flat) + i)
		}
		if out := e.RaiseBatch1(flat); out.Raised != rounds {
			t.Fatalf("%s: batch outcome %+v", e.Name(), out)
		}
		clear(flat) // the caller reuses its buffer at once
	}
	// Only now run the detached handlers: had the fast path recycled the
	// buffers, later raises would have overwritten or cleared the args.
	for _, fn := range pending {
		fn()
	}
	if len(seen) != 3*rounds {
		t.Fatalf("async handlers ran %d times, want %d", len(seen), 3*rounds)
	}
	for i, v := range seen {
		want := uint64(i)
		if i >= rounds {
			want = uint64(rounds + (i-rounds)%rounds) // the batches' frames
		}
		if v != want {
			t.Fatalf("async handler %d saw %d, want %d", i, v, want)
		}
	}
}

// TestStripedCountersAggregate checks Stats sums the counter stripes: many
// goroutines raising concurrently must account for every raise and firing.
func TestStripedCountersAggregate(t *testing.T) {
	d := New()
	var calls atomic.Int64
	h := fastHandler(0)
	h.Fn = func(any, []any) any { calls.Add(1); return nil }
	ev, err := d.DefineEvent("Fast.Stripes", fastSig(0), WithIntrinsic(h))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := ev.Raise0(); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	st := ev.Stats()
	if st.Raised != workers*perWorker {
		t.Fatalf("Raised = %d, want %d", st.Raised, workers*perWorker)
	}
	if st.Fired != workers*perWorker {
		t.Fatalf("Fired = %d, want %d", st.Fired, workers*perWorker)
	}
	if got := calls.Load(); got != workers*perWorker {
		t.Fatalf("handler calls = %d, want %d", got, workers*perWorker)
	}
}

// TestConcurrentRaiseInstallStats hammers one event with parallel raises,
// installation churn, and statistics snapshots; under -race it proves the
// striped counters and the atomic plan swap stay safe together.
func TestConcurrentRaiseInstallStats(t *testing.T) {
	d := New()
	ev, err := d.DefineEvent("Fast.Hammer", fastSig(1), WithIntrinsic(fastHandler(1)))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	raisers := runtime.GOMAXPROCS(0)
	if raisers < 2 {
		raisers = 2
	}
	for w := 0; w < raisers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ev.Raise1(uint64(i)); err != nil {
					panic(err)
				}
			}
		}()
	}
	// Installation churn: repeatedly add and remove a guarded handler,
	// regenerating and republishing the plan under the raisers' feet.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := fastHandler(1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			bd, err := ev.Install(h, WithGuard(Guard{Pred: codegen.ArgEq(0, uint64(i%3))}))
			if err != nil {
				panic(err)
			}
			if err := ev.Uninstall(bd); err != nil {
				panic(err)
			}
		}
	}()
	// Statistics snapshots concurrent with both.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := ev.Stats()
			if st.Raised < last {
				panic(fmt.Sprintf("Raised went backwards: %d -> %d", last, st.Raised))
			}
			last = st.Raised
		}
	}()

	for i := 0; i < 2000; i++ {
		if _, err := ev.Raise1(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if st := ev.Stats(); st.Raised < 2000 {
		t.Fatalf("Raised = %d, want >= 2000", st.Raised)
	}
}

// TestCachedEnvSurvivesRecompile ensures the per-event Env built at
// definition time keeps feeding statistics after installs replace the
// plan.
func TestCachedEnvSurvivesRecompile(t *testing.T) {
	d := New()
	ev, err := d.DefineEvent("Fast.Recompile", fastSig(0), WithIntrinsic(fastHandler(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Raise0(); err != nil {
		t.Fatal(err)
	}
	calls := 0
	h := fastHandler(0)
	h.Fn = func(any, []any) any { calls++; return nil }
	if _, err := ev.Install(h); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Raise0(); err != nil {
		t.Fatal(err)
	}
	st := ev.Stats()
	if st.Raised != 2 || st.Fired != 3 {
		t.Fatalf("stats = %+v, want Raised=2 Fired=3", st)
	}
	if calls != 1 {
		t.Fatalf("new binding fired %d, want 1", calls)
	}
}

// TestGuardIndexZeroAlloc: the guard index costs a lookup, never an
// allocation. The plan is the UDP demultiplexer's shape — 257 sockets, each
// guarded on its port — raised singly on a bound port, and as RaiseBatch2
// trains of 1 and 64 datagrams alternating a bound port and an unbound one.
func TestGuardIndexZeroAlloc(t *testing.T) {
	const ports = 257
	d := New()
	e, err := d.DefineEvent("Fast.PortDemux", fastSig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ports; i++ {
		if _, err := e.Install(fastHandler(2),
			WithGuard(Guard{Pred: codegen.ArgEq(0, uint64(7000+i))})); err != nil {
			t.Fatal(err)
		}
	}
	if runs, covered := e.Plan().IndexedRuns(); runs != 1 || covered != ports {
		t.Fatalf("plan indexes %d runs over %d steps, want 1 over %d:\n%.300s",
			runs, covered, ports, e.Plan().Disassemble())
	}
	// Boxed once, as a steady-state producer holds its frames.
	var bound, unbound, payload any = uint64(7000 + ports - 1), uint64(9), uint64(8)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := e.Raise2(bound, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("single raise through the index allocates %v/op, want 0", n)
	}
	for _, train := range []int{1, 64} {
		flat := make([]any, 0, 2*train)
		for i := 0; i < train; i++ {
			port := bound
			if i%2 == 1 {
				port = unbound
			}
			flat = append(flat, port, payload)
		}
		if n := testing.AllocsPerRun(200, func() {
			if out := e.RaiseBatch2(flat); out.Raised != train || out.Fired != int64((train+1)/2) {
				t.Fatalf("outcome %+v", out)
			}
		}); n != 0 {
			t.Errorf("RaiseBatch2 train of %d through the index allocates %v, want 0", train, n)
		}
	}
}
