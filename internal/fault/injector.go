package fault

import (
	"fmt"
	"sync"
)

// InjectedPanic is the panic value the injection harness throws, carrying
// enough identity for tests to assert the fault records they expect.
type InjectedPanic struct {
	// Target is the injection target name.
	Target string
	// N is the 1-based invocation count at which the panic fired.
	N uint64
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic into %s (invocation %d)", p.Target, p.N)
}

// rule is one deterministic injection: it applies on invocations where
// n % Every == Offset % Every.
type rule struct {
	kind   Kind
	every  uint64
	offset uint64
	value  any
}

func (r *rule) applies(n uint64) bool {
	return r.every > 0 && n%r.every == r.offset%r.every
}

// Injector deterministically injects faults — panics and wrong results —
// into guards and handlers wrapped through it. Injection is keyed by
// target name and driven by a per-target invocation counter, so a test
// reproduces the same fault sequence on every run regardless of
// scheduling.
type Injector struct {
	mu     sync.Mutex
	rules  map[string][]*rule
	counts map[string]*counter
}

type counter struct {
	mu sync.Mutex
	n  uint64
}

// NewInjector creates an empty injector; without rules, wrapped functions
// run undisturbed.
func NewInjector() *Injector {
	return &Injector{rules: make(map[string][]*rule), counts: make(map[string]*counter)}
}

func (in *Injector) addRule(target string, r *rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[target] = append(in.rules[target], r)
}

// PanicEvery makes every every-th invocation of target panic with an
// InjectedPanic value, starting at invocation offset (1-based; offset 0
// means the every-th, 2*every-th, ... invocations).
func (in *Injector) PanicEvery(target string, every, offset uint64) *Injector {
	in.addRule(target, &rule{kind: KindPanic, every: every, offset: offset})
	return in
}

// BadResultEvery makes every every-th invocation of target skip the real
// function and return v instead (a wrong-type or wrong-arity result).
func (in *Injector) BadResultEvery(target string, every, offset uint64, v any) *Injector {
	in.addRule(target, &rule{kind: KindBadResult, every: every, offset: offset, value: v})
	return in
}

// Count reports how many invocations target has seen.
func (in *Injector) Count(target string) uint64 {
	in.mu.Lock()
	c := in.counts[target]
	in.mu.Unlock()
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Reset zeroes all invocation counters (the rules stay).
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, c := range in.counts {
		c.mu.Lock()
		c.n = 0
		c.mu.Unlock()
	}
}

// tick advances target's counter and returns the matched rule (nil for a
// clean invocation) plus the invocation number.
func (in *Injector) tick(target string) (*rule, uint64) {
	in.mu.Lock()
	c := in.counts[target]
	if c == nil {
		c = &counter{}
		in.counts[target] = c
	}
	rules := in.rules[target]
	in.mu.Unlock()

	c.mu.Lock()
	c.n++
	n := c.n
	c.mu.Unlock()

	for _, r := range rules {
		if r.applies(n) {
			return r, n
		}
	}
	return nil, n
}

// apply runs the matched rule's pre-invocation effect and reports whether
// the real function should be skipped (with the substitute result).
func apply(target string, r *rule, n uint64) (skip bool, substitute any) {
	switch r.kind {
	case KindPanic:
		panic(InjectedPanic{Target: target, N: n})
	case KindBadResult:
		return true, r.value
	}
	return false, nil
}

// Handler wraps a handler implementation (the dispatcher's HandlerFn
// calling convention) with target's injection rules. The returned function
// is assignable to codegen.HandlerFn.
func (in *Injector) Handler(target string, fn func(closure any, args []any) any) func(closure any, args []any) any {
	return func(closure any, args []any) any {
		if r, n := in.tick(target); r != nil {
			if skip, sub := apply(target, r, n); skip {
				return sub
			}
		}
		return fn(closure, args)
	}
}

// Guard wraps a guard predicate (the dispatcher's GuardFn calling
// convention) with target's injection rules. A BadResult rule forces the
// guard's verdict to the rule value's truthiness.
func (in *Injector) Guard(target string, fn func(closure any, args []any) bool) func(closure any, args []any) bool {
	return func(closure any, args []any) bool {
		if r, n := in.tick(target); r != nil {
			if skip, sub := apply(target, r, n); skip {
				b, _ := sub.(bool)
				return b
			}
		}
		return fn(closure, args)
	}
}
