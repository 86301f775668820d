package codegen

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"spin/internal/admit"
	"spin/internal/stripe"
	"spin/internal/trace"
	"spin/internal/vtime"
)

var updateObserved = flag.Bool("update", false, "rewrite testdata/observed.golden from this run")

const observedGolden = "testdata/observed.golden"

// obsRig runs one observed-golden case: a metered CPU (unless the case is
// the unmetered one), a tracer that samples every raise (unless traced is
// off), and a log of every call the plan makes into the fault hook, the
// Env supervisors and the handler bodies. It counts each binding's firings
// by name: a handler body counts itself on entry, so a panicking one still
// counts, and the ephemeral supervisor counts the firing it abandons
// without running it. It is the FaultHook of the plans it compiles with
// protect set.
type obsRig struct {
	out     *strings.Builder
	traced  bool
	protect bool
	tracer  *trace.Tracer
	clock   vtime.Clock
	cpu     *vtime.CPU
	env     Env
	excess  stripe.Counter // Env.FiredExcess
	frames  int64          // frames run, as the dispatcher's raised total counts them
	fires   map[string]int64
	calls   []string
	bs      []*Binding      // every binding compiled, in report order
	abandon map[string]bool // tags the fake ephemeral supervisor abandons
}

func (r *obsRig) log(format string, a ...any) { r.calls = append(r.calls, fmt.Sprintf(format, a...)) }

// async and runEphemeral are the rig's step supervisors: they log the
// hand-off and run the invocation at once, but for the ephemeral tags in
// abandon, which count as fired and never run.
func (r *obsRig) async(q *admit.Queue, tag any, arity int, invoke func(context.Context) any) {
	r.log("Async %v arity=%d queued=%v", tag, arity, q != nil)
	invoke(context.Background())
}

func (r *obsRig) runEphemeral(tag any, invoke func(context.Context) any) (any, bool) {
	r.log("RunEphemeral %v", tag)
	if r.abandon[tag.(string)] {
		r.fires[tag.(string)]++
		return nil, false
	}
	return invoke(context.Background()), true
}

func (r *obsRig) HandlerPanic(tag, val any, _ []byte) { r.log("HandlerPanic %v: %v", tag, val) }
func (r *obsRig) GuardPanic(tag, val any, _ []byte) error {
	r.log("GuardPanic %v: %v", tag, val)
	return nil
}

// bind builds a named handler returning res; body, when non-nil, runs first
// (it may charge the CPU or panic).
func (r *obsRig) bind(name string, res any, body func(args []any), guards ...Guard) *Binding {
	return &Binding{Name: name, Tag: name, Guards: guards,
		Fn: func(_ any, args []any) any {
			r.fires[name]++
			r.log("run %s %v", name, args)
			if body != nil {
				body(args)
			}
			return res
		}}
}

// callGuard is an out-of-line guard passing when argument 1 is below limit.
func callGuard(limit uint64) Guard {
	return Guard{Fn: func(_ any, args []any) bool {
		w, ok := argWord(args, 1)
		return ok && w < limit
	}}
}

func (r *obsRig) compile(info EventInfo, bs []*Binding, fold ResultFn, def *Binding, opts Options) *Plan {
	if r.traced {
		opts.Trace = r.tracer
	}
	if r.protect {
		opts.Protect = r
	}
	opts.Async, opts.RunEphemeral = r.async, r.runEphemeral
	r.bs = append(r.bs, bs...)
	if def != nil {
		r.bs = append(r.bs, def)
	}
	return Compile(nil, 0, info, bs, fold, def, opts)
}

func (r *obsRig) raise(p *Plan, args ...any) {
	before := r.clock.Now()
	out := p.Execute(&r.env, args, 0)
	r.frames++
	fmt.Fprintf(r.out, "raise %v: %+v cost=%v\n", args, out, r.clock.Now().Sub(before))
}

// batch runs frames as a metered batch does: a loop of single raises.
func (r *obsRig) batch(p *Plan, frames ...[]any) {
	before := r.clock.Now()
	var out frameTotals
	for _, f := range frames {
		out.add(p.Execute(&r.env, f, 0))
	}
	r.frames += int64(len(frames))
	fmt.Fprintf(r.out, "batch %v: %+v done=%d cost=%v\n", frames, out, len(frames), r.clock.Now().Sub(before))
}

// report writes what the case left behind: the statistics, the call log
// and every span, as the text export renders it and field by field.
func (r *obsRig) report() {
	fmt.Fprintf(r.out, "fires:")
	for _, b := range r.bs {
		fmt.Fprintf(r.out, " %s=%d", b.Name, r.fires[b.Name])
	}
	fmt.Fprintf(r.out, " total=%d\n", r.frames+r.excess.Load())
	for _, c := range r.calls {
		fmt.Fprintf(r.out, "call %s\n", c)
	}
	if !r.traced {
		return
	}
	var text strings.Builder
	if err := r.tracer.ExportText(&text); err != nil {
		panic(err)
	}
	r.out.WriteString(text.String())
	for _, sp := range r.tracer.Snapshot() {
		fmt.Fprintf(r.out, "span %+v\n", sp)
	}
}

// observedCases are the plan shapes the observed (metered, sampled) walk
// must keep byte-identical: charges, spans, outcome, statistics, hook calls.
var observedCases = []struct {
	name      string
	unmetered bool
	protect   bool
	run       func(r *obsRig)
}{
	{name: "direct", run: func(r *obsRig) {
		p := r.compile(info(2, true), []*Binding{r.bind("D", uint64(7), nil)}, nil, nil, Options{})
		r.raise(p, uint64(1), uint64(2))
	}},
	{name: "direct, protected, completes then panics", protect: true, run: func(r *obsRig) {
		p := r.compile(info(1, true), []*Binding{r.bind("D", uint64(7), func(args []any) {
			r.cpu.ChargeN(vtime.ArgCopy, 3)
			if args[0] == uint64(0) {
				panic("direct")
			}
		})}, nil, nil, Options{})
		r.raise(p, uint64(1))
		r.raise(p, uint64(0))
	}},
	{name: "and guard beside a call guard", run: func(r *obsRig) {
		p := r.compile(info(2, false), []*Binding{
			r.bind("A", nil, nil, callGuard(5), Guard{Pred: And(ArgEq(0, 1), ArgNe(1, 3))}),
			r.bind("B", nil, nil),
		}, nil, nil, Options{})
		for _, a := range [][2]uint64{{1, 2}, {1, 3}, {1, 7}, {2, 2}} {
			r.raise(p, a[0], a[1])
		}
	}},
	// A five-step run of first-leaf equalities (steps 0 and 2 chain on 1,
	// steps 1 and 4 on 2; step 1's equality is the left leaf of a
	// conjunction, step 2 carries a call guard behind its): a hit, a chained
	// hit, a chained hit whose call guard fails, a miss and a non-word.
	{name: "indexed run", run: func(r *obsRig) {
		p := r.compile(info(2, false), []*Binding{
			r.bind("P1a", nil, nil, Guard{Pred: ArgEq(0, 1)}),
			r.bind("P2a", nil, nil, Guard{Pred: And(ArgEq(0, 2), ArgNe(1, 9))}),
			r.bind("P1b", nil, nil, Guard{Pred: ArgEq(0, 1)}, callGuard(5)),
			r.bind("P3", nil, nil, Guard{Pred: ArgEq(0, 3)}),
			r.bind("P2b", nil, nil, Guard{Pred: ArgEq(0, 2)}),
		}, nil, nil, Options{})
		r.raise(p, uint64(2), uint64(0))
		r.raise(p, uint64(1), uint64(0))
		r.raise(p, uint64(1), uint64(7))
		r.raise(p, uint64(9), uint64(0))
		r.raise(p, "not-a-word", uint64(0))
	}},
	{name: "fold", run: func(r *obsRig) {
		var cell atomic.Uint64
		sum := func(acc, res any, index int) any {
			r.log("fold #%d %v", index, res)
			a, _ := acc.(uint64)
			return a + res.(uint64)
		}
		p := r.compile(info(1, true), []*Binding{
			r.bind("F1", uint64(1), nil),
			r.bind("F2", uint64(2), nil, Guard{Pred: GlobalEq(&cell, 1)}),
			r.bind("F3", uint64(3), nil, Guard{Pred: ArgLt(0, 5)}),
			r.bind("F4", uint64(4), nil),
		}, sum, nil, Options{})
		r.raise(p, uint64(1))
		r.raise(p, uint64(9))
	}},
	{name: "ambiguous result", run: func(r *obsRig) {
		p := r.compile(info(1, true), []*Binding{
			r.bind("R1", uint64(1), nil),
			r.bind("R2", uint64(2), nil, Guard{Pred: ArgNe(0, 0)}),
		}, nil, nil, Options{})
		r.raise(p, uint64(1))
		r.raise(p, uint64(0))
	}},
	{name: "default handler", run: func(r *obsRig) {
		p := r.compile(info(1, true), []*Binding{
			r.bind("G", uint64(1), nil, Guard{Pred: ArgEq(0, 1)}),
		}, nil, r.bind("Def", "default", nil), Options{})
		r.raise(p, uint64(2))
		r.raise(p, uint64(1))
	}},
	{name: "filter before a guarded step", run: func(r *obsRig) {
		p := r.compile(info(2, true), []*Binding{
			{Name: "Filt", Tag: "Filt", Filter: true, Fn: func(_ any, args []any) any {
				r.fires["Filt"]++
				r.log("filter %v", args)
				args[0] = uint64(2)
				return nil
			}},
			r.bind("Old", uint64(1), nil, Guard{Pred: ArgEq(0, 1)}),
			r.bind("New", uint64(2), nil, Guard{Pred: ArgEq(0, 2)}, callGuard(4)),
		}, nil, nil, Options{})
		r.raise(p, uint64(1), uint64(3))
		r.raise(p, uint64(1), uint64(4))
	}},
	{name: "async", run: func(r *obsRig) {
		as := r.bind("Async", uint64(1), nil)
		as.Async = true
		p := r.compile(info(2, true), []*Binding{as, r.bind("Sync", uint64(2), nil)}, nil, nil, Options{})
		r.raise(p, uint64(1), uint64(2))
	}},
	{name: "ephemeral, completed and abandoned", run: func(r *obsRig) {
		r.abandon = map[string]bool{"E2": true}
		e1, e2 := r.bind("E1", uint64(1), nil), r.bind("E2", uint64(2), nil)
		e1.Ephemeral, e2.Ephemeral = true, true
		sum := func(acc, res any, index int) any {
			r.log("fold #%d %v", index, res)
			a, _ := acc.(uint64)
			return a + res.(uint64)
		}
		p := r.compile(info(1, true), []*Binding{e1, e2, r.bind("S", uint64(4), nil)}, sum, nil, Options{})
		r.raise(p, uint64(1))
	}},
	{name: "protected handler and guard panics", protect: true, run: func(r *obsRig) {
		sum := func(acc, res any, index int) any {
			a, _ := acc.(uint64)
			return a + res.(uint64)
		}
		charge := func(args []any) { r.cpu.ChargeN(vtime.ArgCopy, 2) }
		p := r.compile(info(2, true), []*Binding{
			r.bind("GP", uint64(1), nil, Guard{Pred: ArgEq(0, 1)}, Guard{Fn: func(_ any, args []any) bool {
				if args[1] == uint64(0) {
					panic("guard")
				}
				return true
			}}),
			r.bind("HP", uint64(2), func(args []any) {
				charge(args)
				if args[1] == uint64(0) {
					panic("handler")
				}
			}, Guard{Pred: ArgEq(0, 1)}),
			r.bind("OK", uint64(4), charge, Guard{Pred: ArgEq(0, 1)}),
		}, sum, r.bind("Def", uint64(8), charge), Options{})
		r.raise(p, uint64(1), uint64(0))
		r.raise(p, uint64(1), uint64(1))
		r.raise(p, uint64(2), uint64(0))
	}},
	{name: "unmetered sampled raise", unmetered: true, run: func(r *obsRig) {
		p := r.compile(info(1, true), []*Binding{
			r.bind("U1", uint64(1), nil, Guard{Pred: ArgEq(0, 1)}),
			r.bind("U2", uint64(2), nil, callGuard(9)),
		}, nil, nil, Options{})
		r.raise(p, uint64(1))
	}},
	{name: "metered batch of three frames", run: func(r *obsRig) {
		p := r.compile(info(1, false), []*Binding{
			r.bind("B1", nil, nil, Guard{Pred: ArgEq(0, 1)}),
			r.bind("B2", nil, nil, Guard{Pred: ArgLt(0, 2)}),
		}, nil, nil, Options{})
		r.batch(p, []any{uint64(1)}, []any{uint64(0)}, []any{uint64(5)})
	}},
}

// runObserved runs every observed case, traced or not, and returns the
// report.
func runObserved(traced bool) string {
	var out strings.Builder
	for _, c := range observedCases {
		r := &obsRig{out: &out, traced: traced, protect: c.protect,
			tracer: trace.New(trace.Config{Capacity: 256}), fires: map[string]int64{}}
		if !c.unmetered {
			r.cpu = vtime.NewCPU(&r.clock, vtime.AlphaModel())
		}
		r.env = Env{CPU: r.cpu, FiredExcess: &r.excess}
		fmt.Fprintf(&out, "== %s ==\n", c.name)
		c.run(r)
		r.report()
	}
	return out.String()
}

// TestObservedGolden pins what a metered raise sampled by a tracer does on
// every plan shape: the spans (as the text export renders them, and field
// by field), the virtual time each raise charged, the outcome, every
// binding's firings as the rig counts them and the fired total, and each
// call into the fault hook and the Env supervisors. -update rewrites the
// golden; only a change meant to move a charge, a span or a hook call may
// do so.
func TestObservedGolden(t *testing.T) {
	got := runObserved(true)
	if *updateObserved {
		if err := os.WriteFile(observedGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(observedGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("observed walk diverges from %s at line %d:\n got %s\nwant %s", observedGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("observed walk diverges from %s: %d lines, want %d", observedGolden, len(gl), len(wl))
	}
}

// TestMeteredChargeParity pins the zero-cost-off contract for tracing on a
// metered raise: with no tracer compiled in, every raise and batch of the
// observed cases charges exactly the virtual time the golden records for
// its sampled twin.
func TestMeteredChargeParity(t *testing.T) {
	charges := func(report string) []string {
		var lines []string
		sc := bufio.NewScanner(strings.NewReader(report))
		for sc.Scan() {
			if l := sc.Text(); strings.HasPrefix(l, "== ") || strings.HasPrefix(l, "raise [") || strings.HasPrefix(l, "batch [") {
				lines = append(lines, l)
			}
		}
		return lines
	}
	want, err := os.ReadFile(observedGolden)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := charges(runObserved(false)), charges(string(want))
	if len(got) != len(wantLines) {
		t.Fatalf("untraced run reports %d raises, the golden %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("untraced raise diverges from the sampled one:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}
