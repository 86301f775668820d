package spin

// Native benchmarks for every table and figure in the paper's evaluation.
// Each benchmark mirrors one experiment; `go test -bench=. -benchmem`
// reports nanoseconds on the host machine, confirming the paper's *shapes*
// (linear scaling in handlers, the inline/no-inline gap, the
// single-handler bypass) on modern hardware. Installation is the
// exception: natively it is incremental (BenchmarkInstall), where the
// paper's regenerated the whole plan. The calibrated virtual-time
// reproductions, in the paper's microseconds, come from `go run ./cmd/spin
// tables` and `go run ./cmd/spin doc`, both built on internal/bench and
// internal/x11.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"spin/internal/bench"
	"spin/internal/codegen"
	"spin/internal/dispatch"
	"spin/internal/fault"
	"spin/internal/rtti"
	"spin/internal/trace"
	"spin/internal/vtime"
	"spin/internal/x11"
)

var benchMod = rtti.NewModule("RootBench")

func benchSig(args int) rtti.Signature {
	ts := make([]rtti.Type, args)
	for i := range ts {
		ts[i] = rtti.Word
	}
	return rtti.Sig(nil, ts...)
}

func benchArgs(n int) []any {
	av := make([]any, n)
	for i := range av {
		av[i] = uint64(i)
	}
	return av
}

// buildEvent assembles a Table 1 configuration: `handlers` handlers, each
// with one guard, inline or out-of-line, on an unmetered dispatcher.
func buildEvent(b testing.TB, args, handlers int, inline bool, opts ...dispatch.Option) *dispatch.Event {
	b.Helper()
	d := dispatch.New(opts...)
	ev, err := d.DefineEvent("Bench.Event", benchSig(args))
	if err != nil {
		b.Fatal(err)
	}
	var cell atomic.Uint64
	for i := 0; i < handlers; i++ {
		var h dispatch.Handler
		var g dispatch.Guard
		if inline {
			g = dispatch.Guard{Pred: codegen.GlobalEq(&cell, 0)}
			h = dispatch.Handler{
				Proc:   &rtti.Proc{Name: "H", Module: benchMod, Sig: benchSig(args)},
				Inline: codegen.Nop(),
			}
		} else {
			g = dispatch.Guard{
				Proc: &rtti.Proc{Name: "G", Module: benchMod, Functional: true,
					Sig: rtti.Sig(rtti.Bool, benchSig(args).Args...)},
				Fn: func(any, []any) bool { return cell.Load() == 0 },
			}
			h = dispatch.Handler{
				Proc: &rtti.Proc{Name: "H", Module: benchMod, Sig: benchSig(args)},
				Fn:   func(any, []any) any { return nil },
			}
		}
		if _, err := ev.Install(h, dispatch.WithGuard(g)); err != nil {
			b.Fatal(err)
		}
	}
	return ev
}

// BenchmarkTable1ProcedureCall is Table 1's baseline column: an event with
// only its intrinsic handler dispatches as a direct call.
func BenchmarkTable1ProcedureCall(b *testing.B) {
	for _, args := range []int{0, 1, 5} {
		b.Run(fmt.Sprintf("args=%d", args), func(b *testing.B) {
			d := dispatch.New()
			ev, err := d.DefineEvent("Bench.Proc", benchSig(args),
				dispatch.WithIntrinsic(dispatch.Handler{
					Proc: &rtti.Proc{Name: "P", Module: benchMod, Sig: benchSig(args)},
					Fn:   func(any, []any) any { return nil },
				}))
			if err != nil {
				b.Fatal(err)
			}
			av := benchArgs(args)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Raise(av...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1Dispatch sweeps the Table 1 grid natively: arguments x
// handlers x inline/no-inline.
func BenchmarkTable1Dispatch(b *testing.B) {
	for _, args := range []int{0, 1, 5} {
		for _, handlers := range []int{1, 5, 10, 50} {
			for _, inline := range []bool{false, true} {
				mode := "noinline"
				if inline {
					mode = "inline"
				}
				b.Run(fmt.Sprintf("args=%d/handlers=%d/%s", args, handlers, mode), func(b *testing.B) {
					ev := buildEvent(b, args, handlers, inline)
					av := benchArgs(args)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := ev.Raise(av...); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkInstall is §3.1 "Installation overhead", natively, in two
// shapes. The present=N subtests time one install onto an event with N
// handlers, uninstalled again untimed: behind an uninstall the space past
// the residents is already claimed, so each install copies the residents'
// steps into a new chain and its cost grows with N. The append subtests
// time the install the paper's workloads make — an append behind a line of
// appends, which writes the step and its guard-index entry in place — for
// each guard population of installKinds: its ns/op and B/op stay flat from
// present=256 to present=4096.
func BenchmarkInstall(b *testing.B) {
	for _, present := range []int{0, 10, 100} {
		b.Run(fmt.Sprintf("present=%d", present), func(b *testing.B) {
			d := dispatch.New()
			ev, err := d.DefineEvent("Bench.Install", benchSig(0))
			if err != nil {
				b.Fatal(err)
			}
			h := dispatch.Handler{
				Proc: &rtti.Proc{Name: "H", Module: benchMod, Sig: benchSig(0)},
				Fn:   func(any, []any) any { return nil },
			}
			for i := 0; i < present; i++ {
				if _, err := ev.Install(h); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bd, err := ev.Install(h)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				_ = ev.Uninstall(bd)
				b.StartTimer()
			}
		})
	}
	for _, kind := range installKinds {
		for _, present := range []int{0, 256, 4096} {
			b.Run(fmt.Sprintf("append/%s/present=%d", kind.name, present), func(b *testing.B) {
				b.ReportAllocs()
				benchAppends(b, kind.guard, present, nil)
			})
		}
	}
	// The indexed population on a traced event: each recompile registers
	// the plan's step layout with the tracer, shared along the line of
	// plans as the steps are.
	for _, present := range []int{0, 256, 4096} {
		b.Run(fmt.Sprintf("append/argeq-traced/present=%d", present), func(b *testing.B) {
			b.ReportAllocs()
			benchAppends(b, installKinds[0].guard, present, trace.New(trace.Config{Capacity: 64}))
		})
	}
}

// installKinds are the guard populations the append benchmarks install,
// one guard per binding on argument 0: an inline ArgEq on a distinct
// constant, which the guard index covers (udp_fanin's port guards), and an
// out-of-line call guard, which it does not.
var installKinds = []struct {
	name  string
	guard func(k int) dispatch.Guard
}{
	{"argeq", func(k int) dispatch.Guard { return dispatch.Guard{Pred: codegen.ArgEq(0, uint64(k))} }},
	{"call", func(int) dispatch.Guard {
		return dispatch.Guard{
			Proc: &rtti.Proc{Name: "G", Module: benchMod, Functional: true, Sig: rtti.Sig(rtti.Bool, rtti.Word)},
			Fn:   func(any, []any) bool { return false },
		}
	}},
}

// appendHandler is the handler installKinds' bindings run.
var appendHandler = dispatch.Handler{
	Proc: &rtti.Proc{Name: "H", Module: benchMod, Sig: benchSig(1)},
	Fn:   func(any, []any) any { return nil },
}

// installChunk is how many timed appends land on an event before it is
// set back to its residents.
const installChunk = 64

// benchAppends times b.N appends onto an event holding present bindings,
// each append landing on present to present+installChunk-1 residents.
// Between chunks the event is set back, untimed, to a state a line of
// appends reaches: the chunk's bindings and the last resident are
// uninstalled and that resident installed again, which copies the plan
// into fresh storage with room to grow (rebuilding all present bindings
// instead would run 64 untimed installs per timed one at present=4096).
// A non-nil tracer traces the event from the start.
func benchAppends(b *testing.B, guard func(int) dispatch.Guard, present int, tracer *trace.Tracer) {
	ev, err := dispatch.New().DefineEvent("Bench.Append", benchSig(1))
	if err != nil {
		b.Fatal(err)
	}
	if tracer != nil {
		ev.Trace(tracer)
	}
	install := func(k int) *dispatch.Binding {
		bd, err := ev.Install(appendHandler, dispatch.WithGuard(guard(k)))
		if err != nil {
			b.Fatal(err)
		}
		return bd
	}
	var last *dispatch.Binding // the last resident
	for k := 0; k < present; k++ {
		last = install(k)
	}
	chunk := make([]*dispatch.Binding, 0, installChunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(chunk) == installChunk {
			b.StopTimer()
			for j := len(chunk) - 1; j >= 0; j-- {
				_ = ev.Uninstall(chunk[j])
			}
			chunk = chunk[:0]
			if last != nil {
				_ = ev.Uninstall(last)
				last = install(present - 1)
			}
			b.StartTimer()
		}
		chunk = append(chunk, install(present+len(chunk)))
	}
}

// BenchmarkAsyncRaise is the §3.1 asynchronous-event measurement: the
// latency the raiser observes for a detached raise.
func BenchmarkAsyncRaise(b *testing.B) {
	for _, args := range []int{0, 5} {
		b.Run(fmt.Sprintf("args=%d", args), func(b *testing.B) {
			done := make(chan struct{}, 4096)
			d := dispatch.New(dispatch.WithSpawner(func(fn func()) {
				fn()
				done <- struct{}{}
			}))
			ev, err := d.DefineEvent("Bench.Async", benchSig(args))
			if err != nil {
				b.Fatal(err)
			}
			_, err = ev.Install(dispatch.Handler{
				Proc: &rtti.Proc{Name: "H", Module: benchMod, Sig: benchSig(args)},
				Fn:   func(any, []any) any { return nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			av := benchArgs(args)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ev.RaiseAsync(av...); err != nil {
					b.Fatal(err)
				}
				<-done
			}
		})
	}
}

// BenchmarkSyscallPath is the §3.1 microbenchmark pair: a null system call
// bound directly versus dispatched through the Table 3 handler population
// (three handlers, two guards).
func BenchmarkSyscallPath(b *testing.B) {
	nullImpl := func(any, []any) any { return nil }
	b.Run("direct", func(b *testing.B) {
		d := dispatch.New()
		ev, _ := d.DefineEvent("Bench.Sys", benchSig(2), dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "S", Module: benchMod, Sig: benchSig(2)},
			Fn:   nullImpl,
		}))
		av := benchArgs(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = ev.Raise(av...)
		}
	})
	b.Run("evented", func(b *testing.B) {
		d := dispatch.New()
		ev, _ := d.DefineEvent("Bench.Sys", benchSig(2))
		admit := dispatch.Guard{
			Proc: &rtti.Proc{Name: "GA", Module: benchMod, Functional: true,
				Sig: rtti.Sig(rtti.Bool, benchSig(2).Args...)},
			Fn: func(any, []any) bool { return true },
		}
		reject := dispatch.Guard{
			Proc: &rtti.Proc{Name: "GR", Module: benchMod, Functional: true,
				Sig: rtti.Sig(rtti.Bool, benchSig(2).Args...)},
			Fn: func(any, []any) bool { return false },
		}
		h := dispatch.Handler{Proc: &rtti.Proc{Name: "S", Module: benchMod, Sig: benchSig(2)}, Fn: nullImpl}
		_, _ = ev.Install(h, dispatch.WithGuard(admit))
		_, _ = ev.Install(h, dispatch.WithGuard(reject))
		_, _ = ev.Install(h)
		av := benchArgs(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = ev.Raise(av...)
		}
	})
}

// BenchmarkTable2UDPRoundtrip runs the two-machine UDP echo in virtual
// time once per iteration; the reported ns/op is harness (simulation)
// cost, while the virtual roundtrip is reported as a custom metric in the
// paper's microseconds.
func BenchmarkTable2UDPRoundtrip(b *testing.B) {
	for _, guards := range []int{1, 5, 10, 50} {
		b.Run(fmt.Sprintf("guards=%d", guards), func(b *testing.B) {
			var lastRT vtime.Duration
			for i := 0; i < b.N; i++ {
				rt, err := bench.Table2Roundtrip(guards)
				if err != nil {
					b.Fatal(err)
				}
				lastRT = rt
			}
			b.ReportMetric(vtime.InMicros(lastRT), "virtual-us/rtt")
		})
	}
}

// BenchmarkTable3Preview runs the full document-preview workload (Table 3
// and the §3.2 breakdown) once per iteration.
func BenchmarkTable3Preview(b *testing.B) {
	var total vtime.Duration
	for i := 0; i < b.N; i++ {
		r, err := x11.Run(x11.Params{})
		if err != nil {
			b.Fatal(err)
		}
		total = r.Total
	}
	b.ReportMetric(float64(total)/1e9, "virtual-s/preview")
}

// BenchmarkAblationNoBypass quantifies the single-handler bypass (DESIGN.md
// decision 1): the same intrinsic-only event raised alone, and beside a
// default handler, which keeps the plan off the bypass.
func BenchmarkAblationNoBypass(b *testing.B) {
	for _, withDefault := range []bool{false, true} {
		name := "bypass"
		if withDefault {
			name = "no-bypass"
		}
		b.Run(name, func(b *testing.B) {
			d := dispatch.New()
			nop := dispatch.Handler{
				Proc: &rtti.Proc{Name: "P", Module: benchMod, Sig: benchSig(0)},
				Fn:   func(any, []any) any { return nil },
			}
			ev, _ := d.DefineEvent("Bench.P", benchSig(0), dispatch.WithIntrinsic(nop))
			if withDefault {
				if err := ev.SetDefaultHandler(nop); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = ev.Raise()
			}
		})
	}
}

// BenchmarkAblationLockedDispatch quantifies the atomic plan swap
// (DESIGN.md decision 3) indirectly: raises on the lock-free dispatcher
// under concurrent installation churn must not collapse.
func BenchmarkAblationLockedDispatch(b *testing.B) {
	d := dispatch.New()
	ev, _ := d.DefineEvent("Bench.P", benchSig(0), dispatch.WithIntrinsic(dispatch.Handler{
		Proc: &rtti.Proc{Name: "P", Module: benchMod, Sig: benchSig(0)},
		Fn:   func(any, []any) any { return nil },
	}))
	stop := make(chan struct{})
	go func() {
		h := dispatch.Handler{
			Proc: &rtti.Proc{Name: "H", Module: benchMod, Sig: benchSig(0)},
			Fn:   func(any, []any) any { return nil },
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			bd, err := ev.Install(h)
			if err == nil {
				_ = ev.Uninstall(bd)
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Raise(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
}

// BenchmarkGuardEvaluation compares the two guard implementations the
// generator supports: an inline predicate versus an out-of-line call.
func BenchmarkGuardEvaluation(b *testing.B) {
	b.Run("inline-pred", func(b *testing.B) {
		ev := buildEvent(b, 1, 10, true)
		av := benchArgs(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = ev.Raise(av...)
		}
	})
	b.Run("outofline-fn", func(b *testing.B) {
		ev := buildEvent(b, 1, 10, false)
		av := benchArgs(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = ev.Raise(av...)
		}
	})
}

// BenchmarkTypedOverhead measures the generic facade's cost over the
// untyped core.
func BenchmarkTypedOverhead(b *testing.B) {
	b.Run("typed", func(b *testing.B) {
		d := NewDispatcher()
		ev, _ := NewEvent2[uint64, uint64](d, "T.P")
		_, _ = ev.Install("H", benchMod, func(a, c uint64) {})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ev.Raise(1, 2)
		}
	})
	b.Run("untyped", func(b *testing.B) {
		d := NewDispatcher()
		ev, _ := d.DefineEvent("T.P", benchSig(2))
		_, _ = ev.Install(dispatch.Handler{
			Proc: &rtti.Proc{Name: "H", Module: benchMod, Sig: benchSig(2)},
			Fn:   func(any, []any) any { return nil },
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = ev.Raise(uint64(1), uint64(2))
		}
	})
}

// BenchmarkRaiseNested3 measures the layered receive path's shape: Ether's
// handler raises Ip, whose handler raises Udp, each with two arguments
// through Raise2, as a frame climbs the netstack. Every raise but the
// outermost runs inside another event's handler.
func BenchmarkRaiseNested3(b *testing.B) {
	d := dispatch.New()
	layer := func(name string, next *dispatch.Event) *dispatch.Event {
		fn := func(any, []any) any { return nil }
		if next != nil {
			fn = func(_ any, args []any) any {
				_, _ = next.Raise2(args[0], args[1])
				return nil
			}
		}
		ev, err := d.DefineEvent(name, benchSig(2), dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: name, Module: benchMod, Sig: benchSig(2)},
			Fn:   fn,
		}))
		if err != nil {
			b.Fatal(err)
		}
		return ev
	}
	ether := layer("Bench.Ether", layer("Bench.Ip", layer("Bench.Udp", nil)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ether.Raise2(uint64(1), uint64(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRaiseParallel measures multicore raise throughput on one hot
// event — the fast-path target of the zero-allocation work: cached env,
// striped statistics counters, and no per-raise heap traffic. Run with
// -cpu 1,2,4,8 to see scaling; the pre-optimization baseline (per-raise
// env allocation plus shared atomic counters) is recorded in CHANGES.md.
func BenchmarkRaiseParallel(b *testing.B) {
	b.Run("bypass", func(b *testing.B) {
		for _, args := range []int{0, 2} {
			b.Run(fmt.Sprintf("args=%d", args), func(b *testing.B) {
				d := dispatch.New()
				ev, err := d.DefineEvent("Bench.Par", benchSig(args),
					dispatch.WithIntrinsic(dispatch.Handler{
						Proc: &rtti.Proc{Name: "P", Module: benchMod, Sig: benchSig(args)},
						Fn:   func(any, []any) any { return nil },
					}))
				if err != nil {
					b.Fatal(err)
				}
				av := benchArgs(args)
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if _, err := ev.Raise(av...); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	})
	b.Run("inline-plan", func(b *testing.B) {
		ev := buildEvent(b, 1, 5, true)
		av := benchArgs(1)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := ev.Raise(av...); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("typed-arity", func(b *testing.B) {
		d := NewDispatcher()
		ev, err := NewEvent2[uint64, uint64](d, "Bench.ParTyped")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ev.Install("H", benchMod, func(a, c uint64) {}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				// Word arguments below 256 box allocation-free, so this
				// exercises the pooled arity frame end to end.
				if err := ev.Raise(1, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// hardenedEvents builds ctl_churn's raise shape twice: 32 closure-guarded
// bindings, on a plain dispatcher and on a hardened one (a fault policy),
// whose plan runs the same stencil behind its per-frame recover barrier.
func hardenedEvents(tb testing.TB) (plain, hardened *dispatch.Event) {
	const bindings = 32
	return buildEvent(tb, 1, bindings, false),
		buildEvent(tb, 1, bindings, false, dispatch.WithFaultPolicy(fault.Policy{Budget: 3}))
}

// BenchmarkHardenedRaise measures what the fault barrier costs a raise
// through Raise1: the plain and the hardened event of hardenedEvents.
func BenchmarkHardenedRaise(b *testing.B) {
	plain, hardened := hardenedEvents(b)
	for _, c := range []struct {
		name string
		ev   *dispatch.Event
	}{{"plain", plain}, {"hardened", hardened}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.ev.Raise1(uint64(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
