package dispatch

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spin/internal/codegen"
	"spin/internal/rtti"
	"spin/internal/trace"
)

// Tests for the dispatch tracing layer: tracing compiled out of the plan
// must cost zero allocations on every fast path (even after a
// enable/disable cycle, which exercises the recompile), sampled tracing
// must export valid Chrome trace_event JSON with the guard -> handler ->
// merge causal structure, and concurrent trace toggling must be safe
// against raises and installation churn.

// TestTracingOffZeroAlloc is the zero-cost-off property: after tracing is
// enabled and then disabled again, the bypass, inline-plan, and sync-step
// raise paths must all run with zero heap allocations — the recompiled
// untraced plan is indistinguishable from one that was never traced.
func TestTracingOffZeroAlloc(t *testing.T) {
	tracer := trace.New(trace.Config{Capacity: 256})

	cycle := func(t *testing.T, ev *Event, raise func()) {
		t.Helper()
		// Enable: the plan recompiles with trace steps; raises record.
		ev.Trace(tracer)
		if !ev.Plan().Traced() {
			t.Fatal("plan not traced after Trace(tracer)")
		}
		raise()
		// Disable: the plan recompiles without them.
		ev.Trace(nil)
		if ev.Plan().Traced() {
			t.Fatal("plan still traced after Trace(nil)")
		}
		if n := testing.AllocsPerRun(1000, raise); n != 0 {
			t.Errorf("tracing off: %v allocs/raise, want 0", n)
		}
	}

	t.Run("bypass", func(t *testing.T) {
		d := New()
		ev, err := d.DefineEvent("TraceOff.Bypass", fastSig(2), WithIntrinsic(fastHandler(2)))
		if err != nil {
			t.Fatal(err)
		}
		cycle(t, ev, func() { _, _ = ev.Raise2(uint64(1), uint64(2)) })
	})
	t.Run("inline-plan", func(t *testing.T) {
		d := New()
		ev, err := d.DefineEvent("TraceOff.Inline", fastSig(2))
		if err != nil {
			t.Fatal(err)
		}
		var cell atomic.Uint64
		for i := 0; i < 5; i++ {
			if _, err := ev.Install(Handler{
				Proc:   &rtti.Proc{Name: "TraceOff.I", Module: fastMod, Sig: fastSig(2)},
				Inline: codegen.Nop(),
			}, WithGuard(Guard{Pred: codegen.GlobalEq(&cell, 0)})); err != nil {
				t.Fatal(err)
			}
		}
		cycle(t, ev, func() { _, _ = ev.Raise2(uint64(1), uint64(2)) })
	})
	t.Run("sync-step", func(t *testing.T) {
		d := New()
		ev, err := d.DefineEvent("TraceOff.Steps", fastSig(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := ev.Install(fastHandler(1)); err != nil {
				t.Fatal(err)
			}
		}
		cycle(t, ev, func() { _, _ = ev.Raise1(uint64(7)) })
	})
}

// TestTracedSamplingExportsChromeJSON is the acceptance check for sampled
// tracing: with 1-in-64 sampling, 640 raises of a guarded multi-handler
// result event record exactly 10 raises, and the Chrome export is valid
// trace_event JSON whose spans carry the guard -> handler -> merge causal
// structure of each raise.
func TestTracedSamplingExportsChromeJSON(t *testing.T) {
	tracer := trace.New(trace.Config{Capacity: 2048, Sample: 64})
	d := New(WithTracer(tracer))
	sig := rtti.Signature{Args: []rtti.Type{rtti.Word}, Result: rtti.Word}
	ev, err := d.DefineEvent("Traced.Request", sig)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) Handler {
		return Handler{
			Proc: &rtti.Proc{Name: name, Module: fastMod, Sig: sig},
			Fn:   func(_ any, args []any) any { return args[0] },
		}
	}
	if _, err := ev.Install(mk("Route.Serve"), WithGuard(Guard{
		Proc: &rtti.Proc{Name: "Route.Match", Module: fastMod, Functional: true,
			Sig: rtti.Sig(rtti.Bool, rtti.Word)},
		Fn: func(any, []any) bool { return true },
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Install(mk("Log.Access"), Last()); err != nil {
		t.Fatal(err)
	}
	if err := ev.SetResultHandler(func(acc, res any, i int) any { return res }); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 640; i++ {
		if _, err := ev.Raise1(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	spans := tracer.Snapshot()
	raises := map[uint64]bool{}
	kinds := map[string]int{}
	for _, sp := range spans {
		raises[sp.Raise] = true
		kinds[sp.Kind.String()]++
	}
	if len(raises) != 10 {
		t.Fatalf("1-in-64 over 640 raises sampled %d raises, want 10", len(raises))
	}
	// Per sampled raise: raise-begin, one guard, two handlers, two merges,
	// raise-end.
	for kind, want := range map[string]int{
		"raise-begin": 10, "guard": 10, "handler": 20, "merge": 20, "raise-end": 10,
	} {
		if kinds[kind] != want {
			t.Errorf("%d %q spans, want %d (all: %v)", kinds[kind], kind, want, kinds)
		}
	}

	var buf bytes.Buffer
	if err := tracer.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			PID   int     `json:"pid"`
			TID   uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Fatalf("exported %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
	var allNames []string
	for _, te := range doc.TraceEvents {
		if te.Phase != "X" {
			t.Fatalf("event phase %q, want complete-event X", te.Phase)
		}
		if te.PID != 1 || te.TID == 0 {
			t.Fatalf("event pid/tid = %d/%d, want 1/<raise>", te.PID, te.TID)
		}
		allNames = append(allNames, te.Name)
	}
	// The exporter decorates names with kind and outcome; check the causal
	// structure survives: the guard evaluation, the guarded handler, the
	// trailing logger, and the merges.
	joined := strings.Join(allNames, "\n")
	for _, want := range []string{
		"guard Route.Serve [pass]", "Route.Serve (sync)", "Log.Access (sync)", "merge #",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("Chrome export is missing a span named %q", want)
		}
	}
}

// TestConcurrentTraceToggleHammer races trace enable/disable against
// parallel raises, installation churn, and snapshot readers; under -race
// it proves the traced-plan swap shares the untraced swap's safety: a
// raise in flight finishes on the plan it loaded, traced or not.
func TestConcurrentTraceToggleHammer(t *testing.T) {
	tracer := trace.New(trace.Config{Capacity: 512, Sample: 4})
	d := New()
	ev, err := d.DefineEvent("Trace.Hammer", fastSig(1), WithIntrinsic(fastHandler(1)))
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
	// The toggler: flips tracing on and off, recompiling and republishing
	// the plan under the raisers' feet.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				ev.Trace(tracer)
			} else {
				ev.Trace(nil)
			}
		}
	}()
	// Installation churn concurrent with the toggling.
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
	// Snapshot reader concurrent with recording.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sp := range tracer.Snapshot() {
				if sp.Kind == 0 {
					panic("snapshot returned a zero-kind span")
				}
			}
		}
	}()

	for i := 0; i < 2000; i++ {
		if _, err := ev.Raise1(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTracedInstallChurnHeapFlat churns 100k install/uninstall pairs on one
// traced event, each pair's handler under a name of its own, and raises
// every hundredth pair with its index as argument 0. The tracer's program
// registry must not grow with the churn — live heap after runtime.GC at
// the end stays within a bound of the heap after the first tenth — and
// every handler span still in the ring must resolve to the name of the
// handler installed when its raise ran, read back through the raise's
// first argument word.
func TestTracedInstallChurnHeapFlat(t *testing.T) {
	const pairs, every = 100_000, 100
	tracer := trace.New(trace.Config{Capacity: 256})
	d := New(WithTracer(tracer))
	e := mustDefine(t, d, "M.Churn", rtti.Sig(nil, rtti.Word))
	nop := func(any, []any) any { return nil }
	if _, err := e.Install(handler(voidProc("R", rtti.Word), nop)); err != nil {
		t.Fatal(err)
	}
	name := func(i int) string { return "H" + strconv.Itoa(i) }
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var warm uint64
	for i := 0; i < pairs; i++ {
		if i == pairs/10 {
			warm = heap()
		}
		b, err := e.Install(handler(voidProc(name(i), rtti.Word), nop))
		if err != nil {
			t.Fatal(err)
		}
		if i%every == 0 {
			if _, err := e.Raise1(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Uninstall(b); err != nil {
			t.Fatal(err)
		}
	}
	if grown := int64(heap()) - int64(warm); grown > 1<<20 {
		t.Errorf("live heap grew %d bytes over %d traced install/uninstall pairs, want under 1 MiB", grown, pairs*9/10)
	}
	spans := tracer.Snapshot()
	arg0 := map[uint64]uint64{} // raise id -> argument 0
	for _, sp := range spans {
		if sp.Kind == trace.KindRaiseBegin {
			arg0[sp.Raise] = sp.Detail
		}
	}
	checked := 0
	for _, sp := range spans {
		i, ok := arg0[sp.Raise]
		if sp.Kind != trace.KindHandler || sp.Step != 1 || !ok {
			continue
		}
		if want := name(int(i)); sp.Name != want || sp.Event != "M.Churn" {
			t.Errorf("raise of %d: handler span names %s.%q, want M.Churn.%q", i, sp.Event, sp.Name, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("no handler span of a churned binding left in the ring of %d spans", len(spans))
	}
}
