package dispatch

import (
	"errors"
	"sync"
	"testing"
	"time"

	"spin/internal/rtti"
	"spin/internal/vtime"
)

// syncSpawner runs spawned work inline, making real-mode async tests
// deterministic.
func syncSpawner() Option {
	return WithSpawner(func(fn func()) { fn() })
}

func TestAsyncEventDetachesRaiser(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word), AsAsync())
	done := make(chan int, 1)
	_, _ = e.Install(handler(voidProc("H", rtti.Word), func(clo any, args []any) any {
		done <- args[0].(int)
		return nil
	}))
	res, err := e.Raise(42)
	if err != nil || res != nil {
		t.Fatalf("res=%v err=%v", res, err)
	}
	select {
	case v := <-done:
		if v != 42 {
			t.Fatalf("handler saw %d", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("async handler never ran")
	}
}

func TestAsyncRaiseOfResultEventRequiresDefault(t *testing.T) {
	// §2.6: "an attempt to raise an event asynchronously that returns a
	// result will raise an exception unless a default handler is
	// installed."
	d := New(syncSpawner())
	e := mustDefine(t, d, "M.F", rtti.Sig(rtti.Word))
	_, _ = e.Install(handler(resultProc("H", rtti.Word), func(any, []any) any { return 1 }))
	if err := e.RaiseAsync(); !errors.Is(err, ErrAsyncNeedsDefault) {
		t.Fatalf("err = %v", err)
	}
	_ = e.SetDefaultHandler(handler(resultProc("Def", rtti.Word), func(any, []any) any { return 0 }))
	if err := e.RaiseAsync(); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestAsyncRaiseByRefIllegal(t *testing.T) {
	d := New(syncSpawner())
	sig := rtti.Signature{Args: []rtti.Type{rtti.Word}, ByRef: []bool{true}}
	e := mustDefine(t, d, "M.P", sig)
	_, _ = e.Install(Handler{
		Proc: &rtti.Proc{Name: "H", Module: testModule, Sig: sig},
		Fn:   func(any, []any) any { return nil },
	})
	if err := e.RaiseAsync(1); !errors.Is(err, ErrAsyncByRef) {
		t.Fatalf("err = %v", err)
	}
	// Installing an asynchronous handler on a by-ref event is likewise
	// illegal.
	_, err := e.Install(Handler{
		Proc: &rtti.Proc{Name: "H2", Module: testModule, Sig: sig},
		Fn:   func(any, []any) any { return nil },
	}, Async())
	if !errors.Is(err, ErrAsyncByRef) {
		t.Fatalf("install err = %v", err)
	}
}

func TestAsyncHandlerAmongSyncOnes(t *testing.T) {
	// §2.6's lazy-replication example: the original write is synchronous,
	// the replication handler is asynchronous.
	d := New(syncSpawner())
	e := mustDefine(t, d, "FS.Write", rtti.Sig(nil, rtti.Word))
	var order []string
	var mu sync.Mutex
	mark := func(label string) HandlerFn {
		return func(any, []any) any {
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
			return nil
		}
	}
	_, _ = e.Install(handler(voidProc("Write", rtti.Word), mark("write")))
	_, err := e.Install(handler(voidProc("Replicate", rtti.Word), mark("replicate")), Async())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise(1); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestAsyncRaiseChargesThreadSpawn(t *testing.T) {
	// §3.1: asynchronous events introduce 38-90us of additional latency,
	// spent creating the thread.
	var clock vtime.Clock
	cpu := vtime.NewCPU(&clock, vtime.AlphaModel())
	sim := vtime.NewSimulator(&clock)
	d := New(WithCPU(cpu), WithSimulator(sim))
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word, rtti.Word))
	ran := false
	_, _ = e.Install(handler(voidProc("H", rtti.Word, rtti.Word), func(any, []any) any {
		ran = true
		return nil
	}))

	before := clock.Now()
	if err := e.RaiseAsync(uint64(1), uint64(2)); err != nil {
		t.Fatal(err)
	}
	raiseLatency := vtime.InMicros(clock.Now().Sub(before))
	if raiseLatency < 38 || raiseLatency > 90 {
		t.Fatalf("async raise latency %.1fus outside the paper's 38-90us band", raiseLatency)
	}
	if ran {
		t.Fatal("handler ran synchronously in simulator mode")
	}
	sim.Run(0)
	if !ran {
		t.Fatal("handler never ran")
	}
}

func TestEphemeralRequiresDeclaredProc(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	plain := handler(voidProc("H"), func(any, []any) any { return nil })
	if _, err := e.Install(plain, Ephemeral(time.Millisecond)); !errors.Is(err, ErrNotEphemeralProc) {
		t.Fatalf("err = %v", err)
	}
}

func ephemeralHandler(name string, fn HandlerFn) Handler {
	return Handler{
		Proc: &rtti.Proc{Name: name, Module: testModule, Sig: rtti.Sig(nil), Ephemeral: true},
		Fn:   fn,
	}
}

func TestEphemeralHandlerCompletesNormally(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	ran := false
	b, err := e.Install(ephemeralHandler("Fast", func(any, []any) any { ran = true; return nil }),
		Ephemeral(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise(); err != nil {
		t.Fatal(err)
	}
	if !ran || b.Terminations() != 0 || b.Terminated() {
		t.Fatalf("ran=%v terms=%d", ran, b.Terminations())
	}
}

func TestEphemeralHandlerTerminatedOnOverrun(t *testing.T) {
	// §2.6: handlers that execute beyond the allowed period are
	// terminated; the raiser continues. Go cannot destroy a goroutine,
	// so the invocation is abandoned — same observable behaviour for the
	// raiser (see DESIGN.md).
	d := New()
	e := mustDefine(t, d, "Net.Intr", rtti.Sig(nil))
	release := make(chan struct{})
	b, err := e.Install(ephemeralHandler("Slow", func(any, []any) any {
		<-release
		return nil
	}), Ephemeral(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := e.Raise(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("raiser blocked %v on a runaway handler", elapsed)
	}
	if b.Terminations() != 1 || !b.Terminated() {
		t.Fatalf("terminations = %d", b.Terminations())
	}
	close(release)
}

func TestEphemeralPanicIsTermination(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	b, err := e.Install(ephemeralHandler("Panics", func(any, []any) any {
		panic("ephemeral gone wrong")
	}), Ephemeral(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise(); err != nil {
		t.Fatalf("raiser must survive a panicking EPHEMERAL handler: %v", err)
	}
	if b.Terminations() != 1 {
		t.Fatalf("terminations = %d", b.Terminations())
	}
}

func TestEphemeralTerminationDoesNotBlockOtherHandlers(t *testing.T) {
	// A terminated handler must not prevent other handlers from running:
	// "a terminated handler in this case simply causes a packet to be
	// lost".
	d := New()
	e := mustDefine(t, d, "Net.PacketArrived", rtti.Sig(nil))
	release := make(chan struct{})
	defer close(release)
	_, _ = e.Install(ephemeralHandler("Stuck", func(any, []any) any {
		<-release
		return nil
	}), Ephemeral(2*time.Millisecond))
	delivered := 0
	_, _ = e.Install(handler(voidProc("Deliver"), func(any, []any) any { delivered++; return nil }))
	if _, err := e.Raise(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("handler after the runaway one did not run")
	}
}

func TestEphemeralResultDroppedOnTermination(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.F", rtti.Sig(rtti.Word))
	release := make(chan struct{})
	defer close(release)
	eph := Handler{
		Proc: &rtti.Proc{Name: "Slow", Module: testModule, Sig: rtti.Sig(rtti.Word), Ephemeral: true},
		Fn: func(any, []any) any {
			<-release
			return 99
		},
	}
	_, _ = e.Install(eph, Ephemeral(2*time.Millisecond))
	_, _ = e.Install(handler(resultProc("Live", rtti.Word), func(any, []any) any { return 7 }))
	res, err := e.Raise()
	if err != nil || res != 7 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestEphemeralInSimulatorModeRecoversPanics(t *testing.T) {
	var clock vtime.Clock
	cpu := vtime.NewCPU(&clock, vtime.AlphaModel())
	sim := vtime.NewSimulator(&clock)
	d := New(WithCPU(cpu), WithSimulator(sim))
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	b, _ := e.Install(ephemeralHandler("Panics", func(any, []any) any { panic("boom") }),
		Ephemeral(time.Second))
	if _, err := e.Raise(); err != nil {
		t.Fatal(err)
	}
	if b.Terminations() != 1 {
		t.Fatalf("terminations = %d", b.Terminations())
	}
}

func TestDispatcherAccessors(t *testing.T) {
	var clock vtime.Clock
	cpu := vtime.NewCPU(&clock, vtime.AlphaModel())
	sim := vtime.NewSimulator(&clock)
	d := New(WithCPU(cpu), WithSimulator(sim))
	if d.CPU() != cpu || d.Simulator() != sim {
		t.Fatal("accessors broken")
	}
}

// TestAsyncRaiseLeavesCallerArgs: a raise whose handlers run after it
// returns — an async binding's, any handler of an event defined
// asynchronous, any handler under RaiseAsync, an ephemeral binding its
// watchdog abandoned — reads its own copy of the arguments, so a raiser
// that reuses its buffer at once does not change what the handler sees.
// The rows cover every path that copies a frame: the variadic raises, the
// pooled one and the batch.
func TestAsyncRaiseLeavesCallerArgs(t *testing.T) {
	for _, asyncEvent := range []bool{false, true} {
		var pending []func()
		d := New(WithSpawner(func(fn func()) { pending = append(pending, fn) }))
		var evOpts []EventOption
		var instOpts []InstallOption
		if asyncEvent {
			evOpts = append(evOpts, AsAsync())
		} else {
			instOpts = append(instOpts, Async())
		}
		e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word), evOpts...)
		var seen []any
		if _, err := e.Install(handler(voidProc("H", rtti.Word), func(_ any, args []any) any {
			seen = append(seen, args[0])
			return nil
		}), instOpts...); err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			name  string
			raise func(args []any) error
		}{
			{"Raise", func(args []any) error { _, err := e.Raise(args...); return err }},
			{"RaiseAsync", func(args []any) error { return e.RaiseAsync(args...) }},
			{"RaiseReport", func(args []any) error { _, err := e.RaiseReport(args...); return err }},
			{"RaiseBatch1", func(args []any) error { return e.RaiseBatch1(args).Err() }},
		} {
			buf := []any{uint64(1)}
			if err := r.raise(buf); err != nil {
				t.Fatalf("async event=%v %s: %v", asyncEvent, r.name, err)
			}
			buf[0] = uint64(2) // the raiser reuses its buffer
			seen = nil
			for len(pending) > 0 {
				fn := pending[0]
				pending = pending[1:]
				fn()
			}
			if len(seen) != 1 || seen[0] != uint64(1) {
				t.Errorf("async event=%v %s: handler saw %v, want the raised value 1", asyncEvent, r.name, seen)
			}
		}
	}

	// An abandoned ephemeral invocation reads its frame only after the
	// raise returned and the raiser reused its buffer.
	e := mustDefine(t, New(), "M.E", rtti.Sig(nil, rtti.Word))
	release, seen := make(chan struct{}), make(chan any, 1)
	proc := &rtti.Proc{Name: "E", Module: testModule, Sig: rtti.Sig(nil, rtti.Word), Ephemeral: true}
	if _, err := e.Install(Handler{Proc: proc, Fn: func(_ any, args []any) any {
		<-release
		seen <- args[0]
		return nil
	}}, Ephemeral(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name  string
		raise func(args []any) error
	}{
		{"Raise", func(args []any) error { _, err := e.Raise(args...); return err }},
		{"Raise1", func(args []any) error { _, err := e.Raise1(args[0]); return err }},
		{"RaiseReport", func(args []any) error { _, err := e.RaiseReport(args...); return err }},
		{"RaiseBatch1", func(args []any) error { return e.RaiseBatch1(args).Err() }},
	} {
		buf := []any{uint64(1)}
		if err := r.raise(buf); err != nil {
			t.Fatalf("ephemeral %s: %v", r.name, err)
		}
		buf[0] = uint64(2) // the raiser reuses its buffer
		release <- struct{}{}
		if got := <-seen; got != uint64(1) {
			t.Errorf("abandoned ephemeral %s: handler saw %v, want the raised value 1", r.name, got)
		}
	}
}
