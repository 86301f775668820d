package codegen

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"spin/internal/trace"
)

// logBinding is a handler guarded on ArgEq(0, key) that appends id to the
// log its raise carries as argument 1, so concurrent raisers keep separate
// fire logs.
func logBinding(id int, key uint64) *Binding {
	return &Binding{
		Guards:  []Guard{{Pred: ArgEq(0, key)}},
		Closure: id,
		Fn: func(c any, args []any) any {
			log := args[1].(*[]int)
			*log = append(*log, c.(int))
			return nil
		},
	}
}

// logFires raises p once with arg0 = key and returns the ids that fired.
func logFires(p *Plan, key uint64) []int {
	var log []int
	p.Execute(&Env{}, []any{key, &log}, 0)
	return log
}

// wantFires is the reference: the ids of the list's bindings keyed on key,
// in list order.
func wantFires(list []*Binding, key uint64) []int {
	var ids []int
	for _, b := range list {
		if b.Guards[0].Pred.K == key {
			ids = append(ids, b.Closure.(int))
		}
	}
	return ids
}

// checkFires raises every key the lists use on p and compares the fire log
// with the reference over list.
func checkFires(t *testing.T, label string, p *Plan, list []*Binding) {
	t.Helper()
	for key := uint64(0); key < 8; key++ {
		if got, want := logFires(p, key), wantFires(list, key); !slices.Equal(got, want) {
			t.Fatalf("%s: key %d fired %v, want %v", label, key, got, want)
		}
	}
}

// sharesSteps reports whether two plans read one backing array.
func sharesSteps(a, b *Plan) bool { return &a.steps[0] == &b.steps[0] && &a.flat[0] == &b.flat[0] }

// sharesIndex reports whether two plans' first runs read one slot table.
func sharesIndex(a, b *Plan) bool { return &a.runs[0].slots[0] == &b.runs[0].slots[0] }

// TestChainSharesStorage walks the storage rules of incremental
// installation: an append at the chain's marks writes the steps and the
// guard index in place; a recompile that changes no step shares both; a
// truncation shares the steps and rebuilds the run it cuts; an append
// behind a truncation copies both, leaving the plan it was compiled from
// intact.
func TestChainSharesStorage(t *testing.T) {
	list := make([]*Binding, 6)
	for i := range list {
		list[i] = logBinding(i, uint64(i%3))
	}
	inf := info(2, false)
	p4 := Compile(nil, 0, inf, list[:4], nil, nil, Options{})
	p5 := recompile(p4, 4, inf, list[:5], nil, nil, nil, Options{})
	if !sharesSteps(p4, p5) || !sharesIndex(p4, p5) {
		t.Error("an append at the marks copied the prefix or the index")
	}
	tracedOpts := Options{Trace: trace.New(trace.Config{Capacity: 8})}
	traced := recompile(p5, 5, inf, list[:5], nil, nil, nil, tracedOpts)
	if !sharesSteps(p5, traced) || !sharesIndex(p5, traced) {
		t.Error("a trace toggle did not share the steps and the index")
	}
	p4again := recompile(p5, 4, inf, list[:4], nil, nil, nil, Options{})
	if !sharesSteps(p5, p4again) {
		t.Error("uninstalling the last binding copied the prefix")
	}
	other := recompile(p4again, 4, inf, append(list[:4:4], list[5]), nil, nil, nil, Options{})
	if sharesSteps(p4again, other) || sharesIndex(p4again, other) {
		t.Error("an append behind a truncation wrote into the chain or the index")
	}
	for _, c := range []struct {
		label string
		p     *Plan
		list  []*Binding
		opts  Options
	}{
		{"p4", p4, list[:4], Options{}}, {"p5", p5, list[:5], Options{}}, {"traced", traced, list[:5], tracedOpts},
		{"p4again", p4again, list[:4], Options{}}, {"other", other, append(list[:4:4], list[5]), Options{}},
	} {
		checkFires(t, c.label, c.p, c.list)
		if want := Compile(nil, 0, inf, c.list, nil, nil, c.opts).Disassemble(); c.p.Disassemble() != want {
			t.Errorf("%s disassembles\n%s\nfrom scratch\n%s", c.label, c.p.Disassemble(), want)
		}
	}
}

// TestCompileSamePrevClaimsOnce: two plans compiled concurrently from one
// predecessor, each appending a different binding to its indexed run,
// claim the chain behind it at most once between them; the loser copies
// the steps and the run, and both dispatch their own lists.
func TestCompileSamePrevClaimsOnce(t *testing.T) {
	base := make([]*Binding, 4)
	for i := range base {
		base[i] = logBinding(i, uint64(i%3))
	}
	inf := info(2, false)
	for trial := 0; trial < 50; trial++ {
		prev := Compile(nil, 0, inf, base, nil, nil, Options{})
		lists := [2][]*Binding{append(base[:4:4], logBinding(4, 1)), append(base[:4:4], logBinding(5, 2))}
		var plans [2]*Plan
		var wg sync.WaitGroup
		for i := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				plans[i] = recompile(prev, 4, inf, lists[i], nil, nil, nil, Options{})
			}()
		}
		wg.Wait()
		if sharesSteps(prev, plans[0]) == sharesSteps(prev, plans[1]) {
			t.Fatal("not exactly one plan appended in place behind one predecessor")
		}
		for i, p := range plans {
			if sharesIndex(prev, p) != sharesSteps(prev, p) {
				t.Fatalf("plan %d shares the steps %v but the run %v", i, sharesSteps(prev, p), sharesIndex(prev, p))
			}
		}
		checkFires(t, "prev", prev, base)
		for i, p := range plans {
			checkFires(t, fmt.Sprintf("plan %d", i), p, lists[i])
		}
	}
}

// TestChainRaisesMatchPublishedPlans races raisers against a writer that
// appends behind an indexed run, uninstalls the last binding and appends
// again, each plan compiled from the published one. Every raise must fire
// what the list of the plan it loaded fires. Run it under -race.
func TestChainRaisesMatchPublishedPlans(t *testing.T) {
	type published struct {
		plan *Plan
		list []*Binding
	}
	inf := info(2, false)
	base := make([]*Binding, 8)
	for i := range base {
		base[i] = logBinding(i, uint64(i%5))
	}
	var live atomic.Pointer[published]
	live.Store(&published{Compile(nil, 0, inf, base, nil, nil, Options{}), base})
	publish := func(list []*Binding, from int) {
		live.Store(&published{recompile(live.Load().plan, from, inf, list, nil, nil, nil, Options{}), list})
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	const raisers = 2
	errs := make(chan string, raisers) // each raiser sends at most once
	for r := 0; r < raisers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := uint64(r); !done.Load(); key = (key + 1) % 8 {
				v := live.Load()
				if got, want := logFires(v.plan, key), wantFires(v.list, key); !slices.Equal(got, want) {
					errs <- fmt.Sprintf("key %d fired %v on a plan of %d steps, want %v", key, got, v.plan.Steps(), want)
					return
				}
			}
		}()
	}
	id := len(base)
	for op := 0; op < 600 && len(errs) == 0; op++ {
		list := live.Load().list
		switch {
		case op%3 == 2 || len(list) > 40: // uninstall the last binding
			publish(list[:len(list)-1:len(list)-1], len(list)-1)
		default: // append behind the run
			publish(append(list[:len(list):len(list)], logBinding(id, uint64(id%7))), len(list))
			id++
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestChainOlderPlanMissesLaterKeys races raisers holding one published
// plan against a writer that appends behind it into the same run, in
// place: new constants into empty slots, and links behind the tails of the
// old plan's chains. The old plan must miss every key appended after it and
// never follow a link past its own end. Run it under -race.
func TestChainOlderPlanMissesLaterKeys(t *testing.T) {
	inf := info(2, false)
	// 12 steps take a chain with room for 18 and a 32-slot table, which
	// holds 21.
	base := make([]*Binding, 12)
	for i := range base {
		base[i] = logBinding(i, uint64(i%3))
	}
	for trial := 0; trial < 20; trial++ {
		old := Compile(nil, 0, inf, base, nil, nil, Options{})
		var done atomic.Bool
		var wg sync.WaitGroup
		errs := make(chan string, 2)
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for key := uint64(r); !done.Load(); key = (key + 1) % 8 {
					if got, want := logFires(old, key), wantFires(base, key); !slices.Equal(got, want) {
						errs <- fmt.Sprintf("key %d fired %v on the older plan, want %v", key, got, want)
						return
					}
				}
			}()
		}
		p, list := old, base
		for id := len(base); id < 18; id++ {
			list = append(list[:len(list):len(list)], logBinding(id, uint64(id%8)))
			p = recompile(p, len(list)-1, inf, list, nil, nil, nil, Options{})
			if !sharesIndex(old, p) {
				t.Fatalf("append %d copied the run", id)
			}
		}
		done.Store(true)
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		checkFires(t, "older plan", old, base)
		checkFires(t, "newest plan", p, list)
	}
}

// TestChainTracedSpansResolve: traced plans share their step layout along a
// line of plans as they share the steps — an append in place extends it, a
// truncation shares it, an append behind a truncation copies it — and the
// spans recorded against every plan of the line, superseded ones included,
// resolve to that plan's handler names.
func TestChainTracedSpansResolve(t *testing.T) {
	tracer := trace.New(trace.Config{Capacity: 256})
	opts := Options{Trace: tracer}
	list := make([]*Binding, 7)
	for i := range list {
		list[i] = &Binding{Name: fmt.Sprintf("h%d", i), Fn: func(any, []any) any { return nil }}
	}
	inf := info(0, false)
	plans := []struct {
		label string
		list  []*Binding
		p     *Plan
	}{{label: "p4", list: list[:4]}, {label: "p5", list: list[:5]}, {label: "p6", list: list[:6]},
		{label: "p4again", list: list[:4]}, {label: "other", list: append(list[:4:4], list[6])}}
	var prev *Plan
	for i, from := range []int{0, 4, 5, 4, 4} {
		plans[i].p = recompile(prev, from, inf, plans[i].list, nil, nil, nil, opts)
		prev = plans[i].p
	}
	shares := func(a, b *Plan) bool { return &a.meta[0] == &b.meta[0] }
	if p4, p6, other := plans[0].p, plans[2].p, plans[4].p; !shares(p4, p6) || shares(p4, other) {
		t.Fatalf("step layouts: appends in place share %v (want true), an append behind a truncation shares %v (want false)",
			shares(p4, p6), shares(p4, other))
	}
	// One raise of each plan, oldest first, exported after the last.
	for _, c := range plans {
		c.p.Execute(&Env{}, nil, 0)
	}
	names := map[uint64][]string{}
	var raises []uint64
	for _, sp := range tracer.Snapshot() {
		if sp.Kind != trace.KindHandler {
			continue
		}
		if names[sp.Raise] == nil {
			raises = append(raises, sp.Raise)
		}
		names[sp.Raise] = append(names[sp.Raise], sp.Name)
	}
	if len(raises) != len(plans) {
		t.Fatalf("%d raises recorded handler spans, want %d", len(raises), len(plans))
	}
	for i, c := range plans {
		var want []string
		for _, b := range c.list {
			want = append(want, b.Name)
		}
		if got := names[raises[i]]; !slices.Equal(got, want) {
			t.Errorf("%s: spans resolve to %v, want %v", c.label, got, want)
		}
	}
}
