package dispatch

import (
	"math/rand"
	"testing"
	"time"

	"spin/internal/codegen"
	"spin/internal/rtti"
)

// Model-based property test: the dispatcher — with all generator
// optimizations enabled, including the decision tree — must agree with a
// naive reference implementation (a plain ordered list with linear guard
// evaluation) across random sequences of installs, uninstalls, reorders
// and raises.

// refBinding is the reference model's view of one installation.
type refBinding struct {
	id    int
	guard func(word uint64) bool // nil = unguarded
}

// refModel is the naive dispatcher.
type refModel struct {
	bindings []*refBinding
}

func (m *refModel) raise(word uint64) []int {
	var fired []int
	for _, b := range m.bindings {
		if b.guard == nil || b.guard(word) {
			fired = append(fired, b.id)
		}
	}
	return fired
}

func (m *refModel) insertFirst(b *refBinding) { m.bindings = append([]*refBinding{b}, m.bindings...) }
func (m *refModel) insertLast(b *refBinding)  { m.bindings = append(m.bindings, b) }

func (m *refModel) remove(id int) {
	for i, b := range m.bindings {
		if b.id == id {
			m.bindings = append(m.bindings[:i], m.bindings[i+1:]...)
			return
		}
	}
}

func TestDispatcherAgreesWithReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 30; trial++ {
		d := New()
		e := mustDefine(t, d, "Model.E", rtti.Sig(nil, rtti.Word))
		ref := &refModel{}

		var fired []int
		nextID := 0
		live := map[int]*Binding{}

		mkHandler := func(id int) Handler {
			return handler(voidProc("H", rtti.Word), func(clo any, args []any) any {
				fired = append(fired, id)
				return nil
			})
		}
		mkGuard := func(rng *rand.Rand) (Guard, func(uint64) bool) {
			switch rng.Intn(3) {
			case 0: // inline equality predicate (decision-tree eligible)
				k := uint64(rng.Intn(4))
				return Guard{Pred: codegen.ArgEq(0, k)},
					func(w uint64) bool { return w == k }
			case 1: // out-of-line range guard
				k := uint64(rng.Intn(4))
				return Guard{
						Proc: &rtti.Proc{Name: "G", Module: testModule, Functional: true,
							Sig: rtti.Sig(rtti.Bool, rtti.Word)},
						Fn: func(clo any, args []any) bool { return args[0].(uint64) < k },
					},
					func(w uint64) bool { return w < k }
			default: // unguarded
				return Guard{}, nil
			}
		}

		for op := 0; op < 60; op++ {
			switch rng.Intn(4) {
			case 0, 1: // install
				id := nextID
				nextID++
				g, refG := mkGuard(rng)
				var opts []InstallOption
				rb := &refBinding{id: id, guard: refG}
				if g.Pred != nil || g.Fn != nil {
					opts = append(opts, WithGuard(g))
				}
				if rng.Intn(4) == 0 {
					opts = append(opts, First())
					ref.insertFirst(rb)
				} else {
					ref.insertLast(rb)
				}
				b, err := e.Install(mkHandler(id), opts...)
				if err != nil {
					t.Fatalf("trial %d op %d install: %v", trial, op, err)
				}
				live[id] = b
			case 2: // uninstall a random live binding
				if len(live) == 0 {
					continue
				}
				for id, b := range live { // first map key: randomized by Go
					if err := e.Uninstall(b); err != nil {
						t.Fatalf("uninstall: %v", err)
					}
					ref.remove(id)
					delete(live, id)
					break
				}
			case 3: // raise and compare
				w := uint64(rng.Intn(5))
				fired = nil
				_, err := e.Raise(w)
				want := ref.raise(w)
				if err != nil && len(want) != 0 {
					t.Fatalf("trial %d: raise errored (%v) but model fired %v", trial, err, want)
				}
				if err == nil && len(want) == 0 {
					t.Fatalf("trial %d: raise succeeded but model fired nothing", trial)
				}
				if len(fired) != len(want) {
					t.Fatalf("trial %d word %d: fired %v, model %v", trial, w, fired, want)
				}
				for i := range want {
					if fired[i] != want[i] {
						t.Fatalf("trial %d word %d: order %v, model %v", trial, w, fired, want)
					}
				}
			}
		}
	}
}

// TestDispatcherAgreesWithReferenceModelMixedModes extends the property
// test beyond sync guarded bindings: async and ephemeral handlers are mixed
// into the population, and some raises uninstall a live binding from inside
// a handler mid-raise. An inline spawner makes async execution synchronous
// and ordered, so the reference model's sequence prediction stays exact;
// ephemeral handlers run under real supervision (goroutine + watchdog) with
// a deadline generous enough that they always complete. A raise in flight
// must dispatch per its immutable pre-raise plan even when a handler churns
// the binding list under it (plan-snapshot semantics), and subsequent
// raises must see the churn.
func TestDispatcherAgreesWithReferenceModelMixedModes(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	ephProc := func(name string) *rtti.Proc {
		return &rtti.Proc{Name: name, Module: testModule, Ephemeral: true,
			Sig: rtti.Sig(nil, rtti.Word)}
	}
	for trial := 0; trial < 20; trial++ {
		d := New(
			WithSpawner(func(fn func()) { fn() }), // async handlers run inline, in order
		)
		e := mustDefine(t, d, "Model.M", rtti.Sig(nil, rtti.Word))
		ref := &refModel{}

		var fired []int
		nextID := 0
		live := map[int]*Binding{}

		// The saboteur: an always-firing sync handler that, when armed,
		// uninstalls the victim binding from inside the raise. It is
		// tracked by the reference model but kept out of `live`, so the
		// random uninstall op never removes it and arming is always safe.
		var victim *Binding
		sabID := nextID
		nextID++
		_, err := e.Install(handler(voidProc("Saboteur", rtti.Word), func(any, []any) any {
			fired = append(fired, sabID)
			if victim != nil {
				if err := e.Uninstall(victim); err != nil {
					t.Errorf("mid-raise uninstall: %v", err)
				}
				victim = nil
			}
			return nil
		}))
		if err != nil {
			t.Fatalf("trial %d: install saboteur: %v", trial, err)
		}
		ref.insertLast(&refBinding{id: sabID})

		mkGuard := func() (Guard, func(uint64) bool) {
			switch rng.Intn(3) {
			case 0: // inline equality predicate (decision-tree eligible)
				k := uint64(rng.Intn(4))
				return Guard{Pred: codegen.ArgEq(0, k)},
					func(w uint64) bool { return w == k }
			case 1: // out-of-line range guard
				k := uint64(rng.Intn(4))
				return Guard{
						Proc: &rtti.Proc{Name: "G", Module: testModule, Functional: true,
							Sig: rtti.Sig(rtti.Bool, rtti.Word)},
						Fn: func(clo any, args []any) bool { return args[0].(uint64) < k },
					},
					func(w uint64) bool { return w < k }
			default: // unguarded
				return Guard{}, nil
			}
		}

		compare := func(w uint64, want []int, err error) {
			t.Helper()
			if err != nil && len(want) != 0 {
				t.Fatalf("trial %d: raise errored (%v) but model fired %v", trial, err, want)
			}
			if err == nil && len(want) == 0 {
				t.Fatalf("trial %d: raise succeeded but model fired nothing", trial)
			}
			if len(fired) != len(want) {
				t.Fatalf("trial %d word %d: fired %v, model %v", trial, w, fired, want)
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("trial %d word %d: order %v, model %v", trial, w, fired, want)
				}
			}
		}

		for op := 0; op < 60; op++ {
			switch rng.Intn(6) {
			case 0, 1: // install a sync, async, or ephemeral handler
				id := nextID
				nextID++
				fn := func(clo any, args []any) any {
					fired = append(fired, id)
					return nil
				}
				var h Handler
				var opts []InstallOption
				switch rng.Intn(3) {
				case 0:
					h = handler(voidProc("Sync", rtti.Word), fn)
				case 1:
					h = handler(voidProc("Async", rtti.Word), fn)
					opts = append(opts, Async())
				default:
					h = handler(ephProc("Eph"), fn)
					opts = append(opts, Ephemeral(time.Second))
				}
				g, refG := mkGuard()
				if g.Pred != nil || g.Fn != nil {
					opts = append(opts, WithGuard(g))
				}
				rb := &refBinding{id: id, guard: refG}
				if rng.Intn(4) == 0 {
					opts = append(opts, First())
					ref.insertFirst(rb)
				} else {
					ref.insertLast(rb)
				}
				b, err := e.Install(h, opts...)
				if err != nil {
					t.Fatalf("trial %d op %d install: %v", trial, op, err)
				}
				live[id] = b
			case 2: // uninstall a random live binding between raises
				if len(live) == 0 {
					continue
				}
				for id, b := range live { // first map key: randomized by Go
					if err := e.Uninstall(b); err != nil {
						t.Fatalf("uninstall: %v", err)
					}
					ref.remove(id)
					delete(live, id)
					break
				}
			case 3, 4: // raise and compare
				w := uint64(rng.Intn(5))
				fired = nil
				_, err := e.Raise(w)
				compare(w, ref.raise(w), err)
			case 5: // raise with a mid-raise uninstall
				if len(live) == 0 {
					continue
				}
				var vid int
				for id, b := range live {
					vid, victim = id, b
					break
				}
				w := uint64(rng.Intn(5))
				// Pre-raise snapshot: the victim still fires this raise
				// (if its guard passes) even though the saboteur tears it
				// out partway through.
				want := ref.raise(w)
				fired = nil
				_, err := e.Raise(w)
				compare(w, want, err)
				if victim != nil {
					t.Fatalf("trial %d: saboteur did not disarm (victim %d)", trial, vid)
				}
				ref.remove(vid)
				delete(live, vid)
				// The next raise must dispatch per the post-churn plan.
				fired = nil
				_, err = e.Raise(w)
				compare(w, ref.raise(w), err)
			}
		}
	}
}

// TestPlanVersionsAreIndependent verifies that every recompile yields an
// independent plan: raises against a stale plan (captured before churn)
// behave per the old population, while fresh raises see the new one.
func TestPlanVersionsAreIndependent(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	n1 := 0
	b1, _ := e.Install(handler(voidProc("H1"), func(any, []any) any { n1++; return nil }))
	oldPlan := e.Plan()

	n2 := 0
	_, _ = e.Install(handler(voidProc("H2"), func(any, []any) any { n2++; return nil }))
	_ = e.Uninstall(b1)

	// The stale plan still dispatches to H1 only.
	env := &codegen.Env{}
	out := oldPlan.Execute(env, nil, 0)
	if out.Fired != 1 || n1 != 1 || n2 != 0 {
		t.Fatalf("stale plan: fired=%d n1=%d n2=%d", out.Fired, n1, n2)
	}
	// The live event dispatches to H2 only.
	if _, err := e.Raise(); err != nil {
		t.Fatal(err)
	}
	if n1 != 1 || n2 != 1 {
		t.Fatalf("fresh raise: n1=%d n2=%d", n1, n2)
	}
}
