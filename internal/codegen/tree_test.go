package codegen

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"spin/internal/admit"
	"spin/internal/vtime"
)

// portBindings builds n bindings guarded on ArgEq(0, basePort+i), each
// recording its port into fired when run.
func portBindings(n int, fired *[]uint64) []*Binding {
	bs := make([]*Binding, n)
	for i := 0; i < n; i++ {
		port := uint64(1000 + i)
		bs[i] = &Binding{
			Guards: []Guard{{Pred: ArgEq(0, port)}},
			Fn: func(any, []any) any {
				*fired = append(*fired, port)
				return nil
			},
		}
	}
	return bs
}

// indexConfigs are the two walks that dispatch through the guard index: the
// plain stencil, and the observed walk of a metered raise.
var indexConfigs = []indexConfig{{"stencil", false}, {"observed", true}}

type indexConfig struct {
	name    string
	metered bool
}

// exec raises p once under the configuration.
func (c indexConfig) exec(p *Plan, args ...any) Outcome {
	return p.Execute(&Env{CPU: meteredCPU(c.metered)}, args, 0)
}

func TestTreeBuiltAboveThreshold(t *testing.T) {
	var fired []uint64
	p := Compile(nil, 0, info(1, false), portBindings(10, &fired), nil, nil, Options{})
	if runs, covered := p.IndexedRuns(); runs != 1 || covered != 10 {
		t.Fatalf("runs=%d covered=%d", runs, covered)
	}
}

func TestTreeNotBuiltBelowThreshold(t *testing.T) {
	var fired []uint64
	p := Compile(nil, 0, info(1, false), portBindings(treeThreshold-1, &fired), nil, nil, Options{})
	if runs, _ := p.IndexedRuns(); runs != 0 {
		t.Fatalf("index built for %d bindings (threshold %d)", treeThreshold-1, treeThreshold)
	}
}

// TestTreeIndexesObservedOnlyPlan: a plan with an async step ahead of the
// run — once a plan only the observed walk ran — carries the index behind
// the boundary step, and its metered raise charges the run as one
// inline-guard lookup, not a guard per step.
func TestTreeIndexesObservedOnlyPlan(t *testing.T) {
	var fired []uint64
	async := &Binding{Async: true, Fn: func(any, []any) any { return nil }}
	spawn := func(_ *admit.Queue, _ any, _ int, invoke func(context.Context) any) { invoke(context.Background()) }
	p := Compile(nil, 0, info(1, false), append([]*Binding{async}, portBindings(10, &fired)...), nil, nil, Options{Async: spawn})
	if runs, covered := p.IndexedRuns(); runs != 1 || covered != 10 {
		t.Fatalf("runs=%d covered=%d, want the 10-port run indexed", runs, covered)
	}
	var clock vtime.Clock
	env := &Env{CPU: vtime.NewCPU(&clock, vtime.AlphaModel())}
	p.Execute(env, []any{uint64(1009)}, 0)
	m := vtime.AlphaModel()
	handler := m.Cost(vtime.HandlerIndirect) + m.Cost(vtime.BindingIndirectArg)
	want := m.Cost(vtime.DispatchEntry) + m.Cost(vtime.DispatchEntryArg) + m.Cost(vtime.GuardInline) + 2*handler
	if got := vtime.Duration(clock.Now()); got != want || len(fired) != 1 || fired[0] != 1009 {
		t.Fatalf("metered raise charged %v and fired %v, want one lookup (%v) and port 1009", got, fired, want)
	}
}

func TestTreeDispatchSelectsCorrectBinding(t *testing.T) {
	for _, cfg := range indexConfigs {
		var fired []uint64
		p := Compile(nil, 0, info(1, false), portBindings(20, &fired), nil, nil, Options{})
		out := cfg.exec(p, uint64(1007))
		if out.Fired != 1 || len(fired) != 1 || fired[0] != 1007 {
			t.Fatalf("%s: fired=%v out=%+v", cfg.name, fired, out)
		}
		// A miss fires nothing.
		fired = nil
		out = cfg.exec(p, uint64(9999))
		if out.Fired != 0 || len(fired) != 0 {
			t.Fatalf("%s: miss fired %v", cfg.name, fired)
		}
		// A non-word argument fires nothing rather than crashing.
		out = cfg.exec(p, "not-a-word")
		if out.Fired != 0 {
			t.Fatalf("%s: non-word argument dispatched", cfg.name)
		}
	}
}

func TestTreeDuplicateConstantsPreserveOrder(t *testing.T) {
	for _, cfg := range indexConfigs {
		var fired []uint64
		bs := portBindings(6, &fired)
		// Two more bindings on an existing port; they must fire after the
		// original, in installation order.
		extra1 := &Binding{Guards: []Guard{{Pred: ArgEq(0, 1002)}},
			Fn: func(any, []any) any { fired = append(fired, 111); return nil }}
		extra2 := &Binding{Guards: []Guard{{Pred: ArgEq(0, 1002)}},
			Fn: func(any, []any) any { fired = append(fired, 222); return nil }}
		bs = append(bs, extra1, extra2)
		p := Compile(nil, 0, info(1, false), bs, nil, nil, Options{})
		cfg.exec(p, uint64(1002))
		if len(fired) != 3 || fired[0] != 1002 || fired[1] != 111 || fired[2] != 222 {
			t.Fatalf("%s: fired = %v", cfg.name, fired)
		}
	}
}

func TestTreeBreaksOnIneligibleStep(t *testing.T) {
	for _, cfg := range indexConfigs {
		var fired []uint64
		bs := portBindings(4, &fired)
		// An unguarded binding in the middle splits the runs.
		mid := &Binding{Fn: func(any, []any) any { fired = append(fired, 7); return nil }}
		bs = append(bs[:2], append([]*Binding{mid}, portBindings(4, &fired)...)...)
		p := Compile(nil, 0, info(1, false), bs, nil, nil, Options{})
		runs, covered := p.IndexedRuns()
		// Runs of 2 and 4: only the 4-run is indexed.
		if runs != 1 || covered != 4 {
			t.Fatalf("%s: runs=%d covered=%d", cfg.name, runs, covered)
		}
		// The port both halves share fires on both sides of the split, around
		// the unguarded binding, in plan order.
		fired = nil
		cfg.exec(p, uint64(1001))
		if len(fired) != 3 || fired[0] != 1001 || fired[1] != 7 || fired[2] != 1001 {
			t.Fatalf("%s: fired = %v", cfg.name, fired)
		}
	}
}

func TestTreeExcludesFilters(t *testing.T) {
	var fired []uint64
	bs := portBindings(9, &fired)
	// The filter rewrites the discriminated argument mid-list: the steps
	// behind it must see the rewritten port, so it ends the run before it
	// and the run behind it extracts the word afresh.
	bs[4].Filter = true
	bs[4].Fn = func(_ any, args []any) any { args[0] = uint64(1007); return nil }
	p := Compile(nil, 0, info(1, false), bs, nil, nil, Options{})
	if runs, covered := p.IndexedRuns(); runs != 2 || covered != 8 {
		t.Fatalf("runs=%d covered=%d: filter binding joined an indexed run", runs, covered)
	}
	p.Execute(&Env{}, []any{uint64(1004)}, 0)
	if len(fired) != 1 || fired[0] != 1007 {
		t.Fatalf("fired = %v, want the rewritten port's handler only", fired)
	}
}

// Property: for random binding populations mixing index-eligible and
// other steps, indexed plans (on either walk) fire the handlers the
// reference model (naivePasses) fires, in the same order.
func TestTreeEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(20) + 1
		var treeLog []int
		bs := make([]*Binding, n)
		for i := range bs {
			id := i
			var g []Guard
			switch rng.Intn(3) {
			case 0:
				g = []Guard{{Pred: ArgEq(0, uint64(rng.Intn(5)))}}
			case 1:
				g = []Guard{{Pred: ArgLt(0, uint64(rng.Intn(5)))}}
			}
			bs[i] = &Binding{Guards: g, Fn: func(any, []any) any {
				treeLog = append(treeLog, id)
				return nil
			}}
		}
		arg := uint64(rng.Intn(6))
		var linLog []int
		for i, b := range bs {
			if naivePasses(b, []any{arg}) {
				linLog = append(linLog, i)
			}
		}
		for _, cfg := range indexConfigs {
			treeLog = nil
			cfg.exec(Compile(nil, 0, info(1, false), bs, nil, nil, Options{}), arg)
			if len(linLog) != len(treeLog) {
				t.Fatalf("trial %d arg %d: model fires %v, %s fired %v",
					trial, arg, linLog, cfg.name, treeLog)
			}
			for i := range linLog {
				if linLog[i] != treeLog[i] {
					t.Fatalf("trial %d arg %d: %s order diverged: %v vs %v",
						trial, arg, cfg.name, linLog, treeLog)
				}
			}
		}
	}
}

// TestTreeFlattensGuardCost pins the performance claim: with the tree, the
// virtual cost of a raise is independent of the number of guarded
// endpoints; with the same ports as out-of-line call guards, which no run
// indexes (the tree table's linear column), cost grows linearly.
func TestTreeFlattensGuardCost(t *testing.T) {
	measure := func(n int, tree bool) float64 {
		var fired []uint64
		bs := portBindings(n, &fired)
		if !tree {
			for _, b := range bs {
				port := b.Guards[0].Pred.K
				b.Guards = []Guard{{Fn: func(_ any, args []any) bool {
					w, ok := argWord(args, 0)
					return ok && w == port
				}}}
			}
		}
		p := Compile(nil, 0, info(1, false), bs, nil, nil, Options{})
		var clock vtime.Clock
		cpu := vtime.NewCPU(&clock, vtime.AlphaModel())
		p.Execute(&Env{CPU: cpu}, []any{uint64(1000)}, 0)
		return vtime.InMicros(vtime.Duration(clock.Now()))
	}
	lin10, lin50 := measure(10, false), measure(50, false)
	tree10, tree50 := measure(10, true), measure(50, true)
	if lin50-lin10 < 0.5 {
		t.Fatalf("linear scan should grow: %.3f -> %.3f", lin10, lin50)
	}
	if diff := tree50 - tree10; diff > 0.01 {
		t.Fatalf("tree dispatch should be flat: %.3f -> %.3f", tree10, tree50)
	}
	if tree50 >= lin50 {
		t.Fatalf("tree (%.3f) not cheaper than linear (%.3f) at 50 endpoints", tree50, lin50)
	}
}

func TestTreeDisassembly(t *testing.T) {
	var fired []uint64
	bs := append([]*Binding{{Fn: func(any, []any) any { return nil }}},
		portBindings(257, &fired)...)
	d := Compile(nil, 0, info(1, false), bs, nil, nil, Options{}).Disassemble()
	if !strings.Contains(d, "index arg0: steps 1..257, 257 keys, 512 slots\n") {
		t.Fatalf("disassembly missing the indexed run:\n%.400s", d)
	}
}

// TestGuardIndexLeafEvaluationsConstant is "the slope is gone" as a count
// rather than a timing: every step is guarded [ArgEq(0, kᵢ), counting call
// guard], and one raise must evaluate the call guard only on the steps the
// index hit — once per step comparing against the raised constant, whatever
// the length of the run, and never on a miss.
func TestGuardIndexLeafEvaluationsConstant(t *testing.T) {
	for _, cfg := range indexConfigs {
		for _, n := range []int{4, 64, 1024} {
			for _, dups := range []int{1, 3} {
				evals := 0
				counting := Guard{Fn: func(any, []any) bool { evals++; return true }}
				bs := make([]*Binding, 0, n+dups)
				for i := 0; i < n; i++ {
					bs = append(bs, &Binding{
						Guards: []Guard{{Pred: ArgEq(0, uint64(1000+i))}, counting},
						Fn:     func(any, []any) any { return nil },
					})
				}
				// Further steps on one constant, spread over the run.
				const key = 1002
				for d := 1; d < dups; d++ {
					at := d * len(bs) / dups
					bs = append(bs[:at+1], bs[at:]...)
					bs[at] = &Binding{
						Guards: []Guard{{Pred: ArgEq(0, key)}, counting},
						Fn:     func(any, []any) any { return nil },
					}
				}
				p := Compile(nil, 0, info(1, false), bs, nil, nil, Options{})
				if runs, covered := p.IndexedRuns(); runs != 1 || covered != len(bs) {
					t.Fatalf("%s n=%d: runs=%d covered=%d", cfg.name, n, runs, covered)
				}
				out := cfg.exec(p, uint64(key))
				if evals != dups || out.Fired != dups {
					t.Errorf("%s n=%d dups=%d: hit evaluated %d call guards and fired %d, want %d",
						cfg.name, n, dups, evals, out.Fired, dups)
				}
				evals = 0
				cfg.exec(p, uint64(7))
				cfg.exec(p, "not-a-word")
				if evals != 0 {
					t.Errorf("%s n=%d dups=%d: misses evaluated %d call guards, want 0",
						cfg.name, n, dups, evals)
				}
			}
		}
	}
}
