package dispatch

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"spin/internal/codegen"
	"spin/internal/rtti"
)

// orderRig builds an event whose handlers append their label to a trace,
// so dispatch order is observable.
type orderRig struct {
	e     *Event
	trace []string
}

func newOrderRig(t *testing.T) *orderRig {
	t.Helper()
	d := New()
	r := &orderRig{}
	r.e = mustDefine(t, d, "M.P", rtti.Sig(nil))
	return r
}

func (r *orderRig) install(t *testing.T, label string, opts ...InstallOption) *Binding {
	t.Helper()
	b, err := r.e.Install(handler(voidProc("H."+label), func(any, []any) any {
		r.trace = append(r.trace, label)
		return nil
	}), opts...)
	if err != nil {
		t.Fatalf("install %s: %v", label, err)
	}
	return b
}

func (r *orderRig) raise(t *testing.T) []string {
	t.Helper()
	r.trace = nil
	if _, err := r.e.Raise(); err != nil {
		t.Fatalf("raise: %v", err)
	}
	return r.trace
}

func sameOrder(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOrderDefaultAppend(t *testing.T) {
	r := newOrderRig(t)
	r.install(t, "a")
	r.install(t, "b")
	r.install(t, "c")
	if got := r.raise(t); !sameOrder(got, []string{"a", "b", "c"}) {
		t.Fatalf("order = %v", got)
	}
}

func TestOrderFirstLast(t *testing.T) {
	r := newOrderRig(t)
	r.install(t, "b")
	r.install(t, "a", First())
	r.install(t, "c", Last())
	r.install(t, "a0", First())
	if got := r.raise(t); !sameOrder(got, []string{"a0", "a", "b", "c"}) {
		t.Fatalf("order = %v", got)
	}
}

func TestOrderBeforeAfter(t *testing.T) {
	r := newOrderRig(t)
	a := r.install(t, "a")
	c := r.install(t, "c")
	r.install(t, "b", Before(c))
	r.install(t, "a2", After(a))
	if got := r.raise(t); !sameOrder(got, []string{"a", "a2", "b", "c"}) {
		t.Fatalf("order = %v", got)
	}
}

func TestOrderBeforeForeignBindingRejected(t *testing.T) {
	r := newOrderRig(t)
	other := newOrderRig(t)
	foreign := other.install(t, "x")
	_, err := r.e.Install(handler(voidProc("H"), func(any, []any) any { return nil }), Before(foreign))
	if !errors.Is(err, ErrOrderRef) {
		t.Fatalf("err = %v", err)
	}
	_, err = r.e.Install(handler(voidProc("H"), func(any, []any) any { return nil }), Before(nil))
	if !errors.Is(err, ErrOrderRef) {
		t.Fatalf("nil ref err = %v", err)
	}
}

func TestOrderAfterUninstalledRejected(t *testing.T) {
	r := newOrderRig(t)
	a := r.install(t, "a")
	if err := r.e.Uninstall(a); err != nil {
		t.Fatal(err)
	}
	_, err := r.e.Install(handler(voidProc("H"), func(any, []any) any { return nil }), After(a))
	if !errors.Is(err, ErrOrderRef) {
		t.Fatalf("err = %v", err)
	}
}

func TestSetOrderRepositions(t *testing.T) {
	// §2.3: ordering constraints can be queried and dynamically changed.
	r := newOrderRig(t)
	a := r.install(t, "a")
	r.install(t, "b")
	r.install(t, "c")
	if err := r.e.SetOrder(a, Order{Kind: OrderLast}); err != nil {
		t.Fatalf("SetOrder: %v", err)
	}
	if got := r.raise(t); !sameOrder(got, []string{"b", "c", "a"}) {
		t.Fatalf("order = %v", got)
	}
	if a.Order().Kind != OrderLast {
		t.Fatalf("queried order = %v", a.Order().Kind)
	}
	if err := r.e.SetOrder(a, Order{Kind: OrderFirst}); err != nil {
		t.Fatalf("SetOrder: %v", err)
	}
	if got := r.raise(t); !sameOrder(got, []string{"a", "b", "c"}) {
		t.Fatalf("order = %v", got)
	}
}

func TestSetOrderSelfReferenceRejected(t *testing.T) {
	r := newOrderRig(t)
	a := r.install(t, "a")
	if err := r.e.SetOrder(a, Order{Kind: OrderBefore, Ref: a}); !errors.Is(err, ErrOrderRef) {
		t.Fatalf("err = %v", err)
	}
}

func TestSetOrderErrors(t *testing.T) {
	r := newOrderRig(t)
	a := r.install(t, "a")
	_ = r.e.Uninstall(a)
	if err := r.e.SetOrder(a, Order{Kind: OrderFirst}); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("uninstalled SetOrder err = %v", err)
	}
	if err := r.e.SetOrder(nil, Order{Kind: OrderFirst}); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("nil SetOrder err = %v", err)
	}
	// A reorder the list rejects leaves the binding where it was, under the
	// constraint it had.
	b := r.install(t, "b")
	if err := r.e.SetOrder(b, Order{Kind: OrderBefore, Ref: a}); !errors.Is(err, ErrOrderRef) {
		t.Fatalf("SetOrder before a removed binding err = %v", err)
	}
	if got := b.Order(); got.Kind != Unordered || r.e.Position(b) != 0 {
		t.Fatalf("after the rejected reorder: order %+v at position %d, want unordered at 0", got, r.e.Position(b))
	}
}

func TestPositionTracksOrder(t *testing.T) {
	r := newOrderRig(t)
	a := r.install(t, "a")
	b := r.install(t, "b", First())
	if r.e.Position(b) != 0 || r.e.Position(a) != 1 {
		t.Fatalf("positions: b=%d a=%d", r.e.Position(b), r.e.Position(a))
	}
	if r.e.Position(&Binding{}) != -1 {
		t.Fatal("foreign binding position must be -1")
	}
	if err := r.e.Uninstall(b); err != nil {
		t.Fatal(err)
	}
	if r.e.Position(b) != -1 || r.e.Position(a) != 0 {
		t.Fatalf("after uninstalling b: positions b=%d a=%d, want -1 and 0", r.e.Position(b), r.e.Position(a))
	}
}

// Property: for random sequences of install operations, First-installed
// handlers precede previously present ones, Last-installed follow them, and
// Before/After land adjacent to their reference at insertion time.
func TestOrderInsertionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		r := newOrderRig(t)
		var installed []*Binding
		labels := map[*Binding]string{}
		for i := 0; i < 12; i++ {
			label := string(rune('a' + i))
			var b *Binding
			switch choice := rng.Intn(4); {
			case choice == 0 || len(installed) == 0:
				b = r.install(t, label)
			case choice == 1:
				b = r.install(t, label, First())
				if r.e.Position(b) != 0 {
					t.Fatalf("First landed at %d", r.e.Position(b))
				}
			case choice == 2:
				ref := installed[rng.Intn(len(installed))]
				b = r.install(t, label, Before(ref))
				if r.e.Position(b) != r.e.Position(ref)-1 {
					t.Fatalf("Before(%s) landed at %d, ref at %d",
						labels[ref], r.e.Position(b), r.e.Position(ref))
				}
			default:
				ref := installed[rng.Intn(len(installed))]
				b = r.install(t, label, After(ref))
				if r.e.Position(b) != r.e.Position(ref)+1 {
					t.Fatalf("After(%s) landed at %d, ref at %d",
						labels[ref], r.e.Position(b), r.e.Position(ref))
				}
			}
			installed = append(installed, b)
			labels[b] = label
		}
		// The trace must match the binding list exactly.
		got := r.raise(t)
		want := make([]string, 0, len(installed))
		for _, b := range r.e.Bindings() {
			want = append(want, labels[b])
		}
		if !sameOrder(got, want) {
			t.Fatalf("trace %v != binding order %v", got, want)
		}
	}
}

// scratchPlan compiles e's handler list from scratch, as the first
// recompile of an event holding it would, and disassembles the plan.
func scratchPlan(e *Event) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var specs []*codegen.Binding
	for _, b := range e.bindings {
		if !b.quarantined.Load() && !b.degraded.Load() {
			specs = append(specs, b.compile(e.d))
		}
	}
	info := codegen.EventInfo{Name: e.name, Arity: e.sig.Arity(), HasResult: e.sig.HasResult()}
	return codegen.Compile(nil, 0, info, specs, e.resultFn, nil, codegen.Options{}).Disassemble()
}

// Property: whatever line of commits reaches a handler list — appends,
// First/Before/After inserts, uninstalls at the end and in the middle,
// reorders, quarantines and readmissions — the published plan, which each
// recompile compiled from its predecessor keeping the steps ahead of the
// first position the commit changed, disassembles as a from-scratch compile
// of the list, guard index included, and fires the list's order.
func TestRecompileMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		d := New()
		e := mustDefine(t, d, "M.Keyed", rtti.Sig(nil, rtti.Word))
		var fired []int
		ids := map[*Binding]int{}
		install := func(opts ...InstallOption) {
			n := len(ids)
			opts = append(opts, WithGuard(Guard{Pred: codegen.ArgEq(0, uint64(n%3))}))
			b, err := e.Install(handler(voidProc("H", rtti.Word), func(any, []any) any {
				fired = append(fired, n)
				return nil
			}), opts...)
			if err != nil {
				t.Fatal(err)
			}
			ids[b] = n
		}
		for op := 0; op < 40; op++ {
			list := e.Bindings()
			pick := func() *Binding { return list[rng.Intn(len(list))] }
			switch c := rng.Intn(10); {
			case c < 4 || len(list) == 0:
				install()
			case c == 4:
				install(First())
			case c == 5:
				install(After(pick()))
			case c == 6:
				if err := e.Uninstall(list[len(list)-1]); err != nil {
					t.Fatal(err)
				}
			case c == 7:
				if err := e.Uninstall(pick()); err != nil {
					t.Fatal(err)
				}
			case c == 8:
				if err := e.SetOrder(pick(), Order{Kind: OrderLast}); err != nil {
					t.Fatal(err)
				}
			default:
				if b := pick(); !d.quarantineBinding(b) {
					d.readmitBinding(b)
				}
			}
			if got, want := e.Plan().Disassemble(), scratchPlan(e); got != want {
				t.Fatalf("trial %d op %d: the published plan disassembles\n%s\nfrom scratch\n%s", trial, op, got, want)
			}
		}
		for key := uint64(0); key < 3; key++ {
			var want []int
			for _, b := range e.Bindings() {
				if !b.Quarantined() && uint64(ids[b]%3) == key {
					want = append(want, ids[b])
				}
			}
			fired = nil
			_, _ = e.Raise(key)
			if !slices.Equal(fired, want) {
				t.Fatalf("trial %d key %d: fired %v, want %v", trial, key, fired, want)
			}
		}
	}
}
