package codegen

import (
	"math/rand"
	"strings"
	"testing"

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

func TestTreeBuiltAboveThreshold(t *testing.T) {
	var fired []uint64
	p := Compile(info(1, false), portBindings(10, &fired), nil, nil,
		Options{EnableDecisionTree: true, DisableBypass: true})
	units, covered := p.TreeUnits()
	if units != 1 || covered != 10 {
		t.Fatalf("units=%d covered=%d", units, covered)
	}
}

func TestTreeNotBuiltBelowThreshold(t *testing.T) {
	var fired []uint64
	p := Compile(info(1, false), portBindings(3, &fired), nil, nil,
		Options{EnableDecisionTree: true, DisableBypass: true})
	if units, _ := p.TreeUnits(); units != 0 {
		t.Fatalf("tree built for %d bindings (threshold %d)", 3, treeThreshold)
	}
}

func TestTreeDisabledByDefault(t *testing.T) {
	var fired []uint64
	p := Compile(info(1, false), portBindings(10, &fired), nil, nil,
		Options{DisableBypass: true})
	if units, _ := p.TreeUnits(); units != 0 {
		t.Fatal("tree built without EnableDecisionTree")
	}
}

func TestTreeDispatchSelectsCorrectBinding(t *testing.T) {
	var fired []uint64
	p := Compile(info(1, false), portBindings(20, &fired), nil, nil,
		Options{EnableDecisionTree: true, DisableBypass: true})
	out := p.Execute(&Env{}, []any{uint64(1007)}, 0)
	if out.Fired != 1 || len(fired) != 1 || fired[0] != 1007 {
		t.Fatalf("fired=%v out=%+v", fired, out)
	}
	// A miss fires nothing.
	fired = nil
	out = p.Execute(&Env{}, []any{uint64(9999)}, 0)
	if out.Fired != 0 || len(fired) != 0 {
		t.Fatalf("miss fired %v", fired)
	}
	// A non-word argument fires nothing rather than crashing.
	out = p.Execute(&Env{}, []any{"not-a-word"}, 0)
	if out.Fired != 0 {
		t.Fatal("non-word argument dispatched")
	}
}

func TestTreeDuplicateConstantsPreserveOrder(t *testing.T) {
	var fired []uint64
	bs := portBindings(6, &fired)
	// Two more bindings on an existing port; they must fire after the
	// original, in installation order.
	extra1 := &Binding{Guards: []Guard{{Pred: ArgEq(0, 1002)}},
		Fn: func(any, []any) any { fired = append(fired, 111); return nil }}
	extra2 := &Binding{Guards: []Guard{{Pred: ArgEq(0, 1002)}},
		Fn: func(any, []any) any { fired = append(fired, 222); return nil }}
	bs = append(bs, extra1, extra2)
	p := Compile(info(1, false), bs, nil, nil,
		Options{EnableDecisionTree: true, DisableBypass: true})
	p.Execute(&Env{}, []any{uint64(1002)}, 0)
	if len(fired) != 3 || fired[0] != 1002 || fired[1] != 111 || fired[2] != 222 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestTreeBreaksOnIneligibleStep(t *testing.T) {
	var fired []uint64
	bs := portBindings(4, &fired)
	// An unguarded binding in the middle splits the runs.
	mid := &Binding{Fn: func(any, []any) any { fired = append(fired, 7); return nil }}
	bs = append(bs[:2], append([]*Binding{mid}, portBindings(4, &fired)...)...)
	p := Compile(info(1, false), bs, nil, nil,
		Options{EnableDecisionTree: true, DisableBypass: true})
	units, covered := p.TreeUnits()
	// Runs of 2 and 4: only the 4-run collapses.
	if units != 1 || covered != 4 {
		t.Fatalf("units=%d covered=%d", units, covered)
	}
}

func TestTreeExcludesFilters(t *testing.T) {
	var fired []uint64
	bs := portBindings(5, &fired)
	bs[2].Filter = true
	p := Compile(info(1, false), bs, nil, nil,
		Options{EnableDecisionTree: true, DisableBypass: true})
	if _, covered := p.TreeUnits(); covered >= 5 {
		t.Fatal("filter binding joined a decision tree")
	}
}

// Property: for random binding populations mixing tree-eligible and
// general steps, tree-enabled and tree-disabled plans fire the same
// handlers in the same order.
func TestTreeEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(20) + 1
		// The same generator seed drives both plan builds, so linear and
		// tree rigs carry identical binding populations.
		seed := rng.Int63()
		build := func(log *[]int, tree bool) *Plan {
			r2 := rand.New(rand.NewSource(seed))
			bs := make([]*Binding, n)
			for i := 0; i < n; i++ {
				id := i
				var g []Guard
				switch r2.Intn(3) {
				case 0:
					g = []Guard{{Pred: ArgEq(0, uint64(r2.Intn(5)))}}
				case 1:
					g = []Guard{{Pred: ArgLt(0, uint64(r2.Intn(5)))}}
				}
				bs[i] = &Binding{Guards: g, Fn: func(any, []any) any {
					*log = append(*log, id)
					return nil
				}}
			}
			return Compile(info(1, false), bs, nil, nil,
				Options{EnableDecisionTree: tree, DisableBypass: true})
		}
		var linLog, treeLog []int
		lin := build(&linLog, false)
		tr := build(&treeLog, true)
		arg := uint64(rng.Intn(6))
		lin.Execute(&Env{}, []any{arg}, 0)
		tr.Execute(&Env{}, []any{arg}, 0)
		if len(linLog) != len(treeLog) {
			t.Fatalf("trial %d arg %d: linear fired %v, tree fired %v", trial, arg, linLog, treeLog)
		}
		for i := range linLog {
			if linLog[i] != treeLog[i] {
				t.Fatalf("trial %d arg %d: order diverged: %v vs %v", trial, arg, linLog, treeLog)
			}
		}
	}
}

// TestTreeFlattensGuardCost pins the performance claim: with the tree, the
// virtual cost of a raise is independent of the number of guarded
// endpoints; without it, cost grows linearly.
func TestTreeFlattensGuardCost(t *testing.T) {
	measure := func(n int, tree bool) float64 {
		var fired []uint64
		p := Compile(info(1, false), portBindings(n, &fired), nil, nil,
			Options{EnableDecisionTree: tree, DisableBypass: true})
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
	p := Compile(info(1, false), portBindings(6, &fired), nil, nil,
		Options{EnableDecisionTree: true, DisableBypass: true})
	d := p.Disassemble()
	if !strings.Contains(d, "switch arg0") || !strings.Contains(d, "decision tree over 6 bindings") {
		t.Fatalf("disassembly missing tree:\n%s", d)
	}
}
