package codegen

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"spin/internal/admit"
	"spin/internal/stripe"
	"spin/internal/trace"
)

// Differential fuzzing: the optimized compiled plan — peephole
// simplification, guard reordering, inline evaluation, the single-binding
// bypass, the decision tree, the flattened shape-specialized stencil, and
// sampled (span-recording) raises — must fire exactly the same handlers and
// filters, in the same order, as a naive reference model that walks the
// binding list evaluating every guard verbatim on the frame as the filters
// ahead of it rewrote it. Async and ephemeral steps run under synchronous
// fake supervisors (fakeSupervisors), so they fire in plan order too.

// fuzzReader decodes a fuzz input byte stream; exhausted streams yield
// zeros so every input is a complete (if boring) program.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// genPred decodes a bounded random predicate tree. The constants are drawn
// from a small domain so raises frequently match guards.
func genPred(r *fuzzReader, depth int, arity int, cell *atomic.Uint64) *Pred {
	op := r.byte() % 10
	if depth <= 0 && op >= 7 {
		op %= 7 // leaves only at the depth bound
	}
	argB := r.byte()
	arg := 0
	if arity > 0 {
		arg = int(argB) % arity
	} else if op >= 2 && op <= 4 {
		op = 5 + op%2 // arity 0 has no arguments: remap to global cells
	}
	k := uint64(r.byte() % 4)
	switch op {
	case 0:
		return True()
	case 1:
		return False()
	case 2:
		return ArgEq(arg, k)
	case 3:
		return ArgNe(arg, k)
	case 4:
		return ArgLt(arg, k)
	case 5:
		return GlobalEq(cell, k)
	case 6:
		return GlobalNe(cell, k)
	case 7:
		return And(genPred(r, depth-1, arity, cell), genPred(r, depth-1, arity, cell))
	case 8:
		return Or(genPred(r, depth-1, arity, cell), genPred(r, depth-1, arity, cell))
	default:
		return Not(genPred(r, depth-1, arity, cell))
	}
}

// genArgs decodes one raise argument vector of small words; the top bytes
// decode to a non-word, which every argument comparison fails on.
func genArgs(r *fuzzReader, arity int) []any {
	args := make([]any, arity)
	for i := range args {
		if b := r.byte(); b >= 0xF0 {
			args[i] = "not-a-word"
		} else {
			args[i] = uint64(b % 4)
		}
	}
	return args
}

// Binding kinds of genBindings, and the tails of an equality-first binding.
// A kind byte of 5 or more adds a mode to any kind but a filter: kind+5 is
// async, kind+10 ephemeral (the byte, divided by 5, modulo 3).
const (
	kindUnguarded = 0
	kindEq        = 1 // 2 decodes the same: two in five bindings start a run
	kindTree      = 3
	kindFilter    = 4 // a filter overwriting one argument word
	modeAsync     = 5
	modeEphemeral = 10

	tailNone = 0 // the bare ArgEq
	tailAnd  = 1 // And(ArgEq, leaf-or-shallow-tree): further leaves in one guard
	tailCall = 2 // a second, out-of-line guard
	tailPred = 3 // a second inline guard, as an authorizer imposes one
)

// rewrite is a generated filter's rewrite, carried as its binding's
// closure so the reference model can apply it: argument arg becomes k.
type rewrite struct {
	arg int
	k   uint64
}

func (w rewrite) apply(args []any) {
	if w.arg < len(args) {
		args[w.arg] = w.k
	}
}

// genBindings decodes n bindings. Two in five start with an equality test
// on an argument, so consecutive runs form and the guard index engages;
// those carry a tail that may add leaves behind the equality. One in five
// is a filter, maybe guarded, overwriting an argument word — ahead of a
// run, the very word the run discriminates on. Of the rest, a third are
// async and a third ephemeral: boundary steps, which split a run their
// equality would have joined. Every handler and filter reports its index
// through fire and returns it as its result.
func genBindings(r *fuzzReader, n, arity int, cell *atomic.Uint64, name string, fire func(i int)) []*Binding {
	bindings := make([]*Binding, n)
	for i := range bindings {
		var guards []Guard
		var filter *rewrite
		b := r.byte()
		switch kind := b % 5; {
		case kind == kindUnguarded:
		case kind == kindTree:
			guards = []Guard{{Pred: genPred(r, 2, arity, cell)}}
		case kind == kindFilter:
			if r.byte()%2 == 1 {
				guards = []Guard{{Pred: genPred(r, 1, arity, cell)}}
			}
			filter = &rewrite{k: uint64(r.byte() % 4)}
			if arity > 0 {
				filter.arg = int(r.byte()) % arity
			}
		case arity == 0:
			guards = []Guard{{Pred: GlobalEq(cell, uint64(r.byte()%4))}}
		default:
			arg := int(r.byte()) % arity
			eq := ArgEq(arg, uint64(r.byte()%4))
			switch r.byte() % 4 {
			case tailNone:
				guards = []Guard{{Pred: eq}}
			case tailAnd:
				guards = []Guard{{Pred: And(eq, genPred(r, 1, arity, cell))}}
			case tailCall:
				limit := uint64(r.byte() % 5)
				guards = []Guard{{Pred: eq}, {Fn: func(_ any, args []any) bool {
					w, ok := argWord(args, arity-1)
					return ok && w < limit
				}}}
			default:
				guards = []Guard{{Pred: eq}, {Pred: GlobalNe(cell, uint64(r.byte()%4))}}
			}
		}
		i := i
		bindings[i] = &Binding{
			Guards: guards,
			Fn: func(any, []any) any {
				fire(i)
				return uint64(i)
			},
			Name: name,
			Tag:  i,
		}
		if filter != nil {
			bindings[i].Filter, bindings[i].Closure = true, *filter
			bindings[i].Fn = func(c any, args []any) any {
				fire(i)
				c.(rewrite).apply(args)
				return uint64(i)
			}
		} else {
			bindings[i].Async, bindings[i].Ephemeral = b/5%3 == 1, b/5%3 == 2
		}
	}
	return bindings
}

// fakeSupervisors are the step supervisors the fuzzers compile in: both
// run the invocation at once, so async and ephemeral steps fire in plan
// order and the ephemeral one always completes, and count it in calls, so
// a step that bypassed its supervisor shows. A panicking invocation is
// reported to hook, as the dispatcher's watchdog reports it to the fault
// controller, and counts as fired: an ephemeral one with no result.
func fakeSupervisors(o Options, hook *recHook, calls *int) Options {
	run := func(tag any, invoke func(context.Context) any) (res any, ok bool) {
		*calls++
		defer func() {
			if v := recover(); v != nil {
				if hook == nil {
					panic(v)
				}
				hook.HandlerPanic(tag, v, nil)
			}
		}()
		return invoke(context.Background()), true
	}
	o.Async = func(_ *admit.Queue, tag any, _ int, invoke func(context.Context) any) { run(tag, invoke) }
	o.RunEphemeral = run
	return o
}

// fuzzConfig is one optimizer configuration of the dispatch fuzzers; a
// metered one raises on a CPU, so it runs the observed walk.
type fuzzConfig struct {
	Options
	Metered bool
}

// naivePasses is the reference model's guard evaluation: every guard of
// the binding, verbatim, in installation order.
func naivePasses(b *Binding, args []any) bool {
	for _, g := range b.Guards {
		if g.Pred != nil {
			if !g.Pred.Eval(args) {
				return false
			}
		} else if !g.Fn(g.Closure, args) {
			return false
		}
	}
	return true
}

// Seed pieces, in the decoders' field order.
func seedEq(arg, k byte) []byte        { return []byte{kindEq, arg, k, tailNone} }
func seedEqAnd(arg, k, k2 byte) []byte { return []byte{kindEq, arg, k, tailAnd, 3, arg, k2} } // && arg != k2
func seedEqCall(arg, k, limit byte) []byte {
	return []byte{kindEq, arg, k, tailCall, limit}
}
func seedEqPred(arg, k, k2 byte) []byte { return []byte{kindEq, arg, k, tailPred, k2} }
func seedLt(arg, k byte) []byte         { return []byte{kindTree, 4, arg, k} }
func seedFilter(arg, k byte) []byte     { return []byte{kindFilter, 0, k, arg} } // unguarded: arg = k
func seedAsyncEq(arg, k byte) []byte    { return []byte{kindEq + modeAsync, arg, k, tailNone} }
func seedEphemeralEq(arg, k byte) []byte {
	return []byte{kindEq + modeEphemeral, arg, k, tailNone}
}

var seedUnguarded = []byte{kindUnguarded}

func seedJoin(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// indexSeeds are binding lists aimed at the guard index, shared by the two
// dispatch fuzzers (each prepends its own header and appends its raises).
// All discriminate on small constants, so the raises below hit them.
var indexSeeds = []struct {
	arity    byte
	churn    byte // FuzzBatchDispatch: the binding, inside a run, that uninstalls itself
	bindings [][]byte
}{
	// Duplicate constants: order within a key, interleaved with other keys.
	{1, 2, [][]byte{seedEq(0, 1), seedEq(0, 2), seedEq(0, 1), seedEq(0, 3), seedEq(0, 2), seedEq(0, 1)}},
	// Further leaves behind the equality: And, a call guard, a second guard.
	{2, 1, [][]byte{seedEqAnd(0, 1, 2), seedEqCall(0, 1, 2), seedEqPred(0, 1, 0), seedEq(0, 1), seedEqCall(0, 2, 4)}},
	// Two adjacent runs on different arguments.
	{2, 5, [][]byte{seedEq(0, 0), seedEq(0, 1), seedEq(0, 2), seedEq(0, 1),
		seedEq(1, 1), seedEq(1, 0), seedEq(1, 1), seedEq(1, 3)}},
	// Runs of 3, 4 and 5 around the threshold, unguarded steps between.
	{1, 10, [][]byte{seedEq(0, 1), seedEq(0, 2), seedEq(0, 1), seedUnguarded,
		seedEq(0, 1), seedEq(0, 2), seedEq(0, 3), seedEq(0, 1), seedUnguarded,
		seedEq(0, 2), seedEq(0, 1), seedEq(0, 0), seedEq(0, 1), seedEq(0, 2)}},
	// One run split by a step that starts with another comparison.
	{1, 3, [][]byte{seedEq(0, 1), seedEq(0, 2), seedEq(0, 3), seedEq(0, 1), seedLt(0, 2),
		seedEq(0, 1), seedEq(0, 0), seedEq(0, 2), seedEq(0, 1)}},
	// No step compares against 0: a raise of 0 misses the whole run.
	{1, 0, [][]byte{seedEq(0, 1), seedEq(0, 2), seedEq(0, 3), seedEq(0, 1), seedEq(0, 2)}},
	// A filter just ahead of a run, overwriting the word it discriminates
	// on: every raise looks up 2.
	{1, 2, [][]byte{seedFilter(0, 2), seedEq(0, 1), seedEq(0, 2), seedEq(0, 1), seedEq(0, 3), seedEq(0, 2)}},
	// A filter splitting a run in two, the second half looking up its 3.
	{2, 6, [][]byte{seedEq(0, 1), seedEq(0, 2), seedEq(0, 1), seedEq(0, 3), seedFilter(0, 3),
		seedEq(0, 3), seedEq(0, 1), seedEq(0, 3), seedEq(0, 2)}},
	// An async step whose equality would join the run: it splits the
	// stretch into 2 steps and an indexed 4.
	{1, 4, [][]byte{seedEq(0, 1), seedEq(0, 2), seedAsyncEq(0, 1), seedEq(0, 3), seedEq(0, 1),
		seedEq(0, 2), seedEq(0, 1)}},
	// An ephemeral step on the same key splitting two indexed runs of 4.
	{2, 3, [][]byte{seedEq(0, 1), seedEq(0, 2), seedEq(0, 1), seedEq(0, 3), seedEphemeralEq(0, 1),
		seedEq(0, 1), seedEq(0, 2), seedEq(0, 3), seedEq(0, 1)}},
}

// indexSeedRaises: hits on each small constant, a total miss where 0 is no
// key, and a non-word in the discriminated slot.
var indexSeedRaises = []byte{1, 0xFF, 2, 0, 0xFF, 1, 0, 0, 1, 3, 2, 1, 2, 2, 0, 1}

// FuzzPredCompile checks that peephole simplification preserves predicate
// semantics and that a plan compiled from a predicate-guarded binding fires
// exactly when naive evaluation of the original predicate passes.
func FuzzPredCompile(f *testing.F) {
	f.Add([]byte{7, 2, 1, 0, 8, 4, 2, 3, 9, 0, 1, 2, 3})
	f.Add([]byte{9, 9, 9, 1, 0, 0, 2, 2, 2})
	f.Add([]byte{2, 0, 1, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		arity := int(r.byte() % 6) // 0..5: every specialized arity shape
		var cell atomic.Uint64
		cell.Store(uint64(r.byte() % 4))
		pred := genPred(r, 3, arity, &cell)

		// Property 1: simplify is observationally identical.
		simplified := pred.simplify()
		for trial := 0; trial < 4; trial++ {
			args := genArgs(r, arity)
			if got, want := simplified.Eval(args), pred.Eval(args); got != want {
				t.Fatalf("simplify changed semantics: %s -> %s on %v: %v != %v",
					pred, simplified, args, got, want)
			}
		}

		// Property 2: the compiled plan — which simplifies, reorders and
		// inlines the guard — fires iff the original predicate passes.
		fired := 0
		binding := &Binding{
			Guards: []Guard{{Pred: pred}},
			Fn:     func(any, []any) any { fired++; return nil },
			Name:   "fuzz.H",
		}
		for _, opts := range []fuzzConfig{
			{},
			{Metered: true},
		} {
			plan := Compile(nil, 0, EventInfo{Name: "Fuzz.Pred", Arity: arity},
				[]*Binding{binding}, nil, nil, opts.Options)
			r2 := *r // same raises for every configuration
			for trial := 0; trial < 4; trial++ {
				args := genArgs(&r2, arity)
				fired = 0
				plan.Execute(&Env{CPU: meteredCPU(opts.Metered)}, args, 0)
				want := 0
				if pred.Eval(args) {
					want = 1
				}
				if fired != want {
					t.Fatalf("opts %+v pred %s args %v: fired %d, want %d",
						opts, pred, args, fired, want)
				}
			}
		}
	})
}

// Chain ops: how chainPlan reaches a binding list through a line of plans,
// each compiled from the last. Each op is a code byte and an operand byte.
const (
	opAppend      = 0 // the list's next binding, behind the chain's
	opFirst       = 1 // a decoy, installed First
	opBefore      = 2 // a decoy at position operand (Before or After a binding)
	opUninstLast  = 3
	opUninstMid   = 4 // the binding at position operand
	opTrace       = 5 // toggle tracing
	opProtect     = 6 // toggle the fault policy
	opRecompile   = 7 // a recompile that changes nothing
	opQuarantine  = 8 // compile the binding at position operand out, or back in
	chainOpCodes  = 9
	chainOpsLimit = 16
)

// chainPlan compiles the binding list a second time, through a line of
// plans each compiled from the last (Compile's prev), starting at the empty
// plan. The ops decoded into ops (pairs of code and operand) append the
// list's bindings, install decoys first, before or after other bindings,
// uninstall the last or a middle binding, compile a binding out of the
// plan and back in while it keeps its position (a quarantine), and toggle
// tracing and the fault policy. The line then readmits what it compiled
// out, uninstalls back to the longest prefix of the list it holds, appends
// the rest one binding at a time, and recompiles under opts itself: every
// plan of a from-scratch compile, reached as an event reaches it.
func chainPlan(ops []byte, info EventInfo, bindings []*Binding, decoy func(x int) *Binding, resultFn ResultFn, def *Binding, opts Options, tracer *trace.Tracer) *Plan {
	o := opts
	var cur []*Binding
	out := map[*Binding]bool{} // the bindings compiled out
	next := 0                  // the list's next binding to append
	p := recompile(nil, 0, info, nil, out, resultFn, def, o)
	for i := 0; i+1 < len(ops); i += 2 {
		x := int(ops[i+1])
		from := len(cur) // the first position the op changes
		switch ops[i] % chainOpCodes {
		case opAppend:
			if next < len(bindings) {
				cur = append(cur, bindings[next])
				next++
			}
		case opFirst:
			from = 0
			cur = slices.Insert(cur, from, decoy(x))
		case opBefore:
			from = x % (len(cur) + 1)
			cur = slices.Insert(cur, from, decoy(x))
		case opUninstLast, opUninstMid:
			if len(cur) == 0 {
				break
			}
			from = len(cur) - 1
			if ops[i]%chainOpCodes == opUninstMid {
				from = x % len(cur)
			}
			if next > 0 && cur[from] == bindings[next-1] && from == len(cur)-1 {
				next-- // appended again later
			}
			delete(out, cur[from])
			cur = slices.Delete(cur, from, from+1)
		case opQuarantine:
			if len(cur) > 0 {
				from = x % len(cur)
				out[cur[from]] = !out[cur[from]]
			}
		case opTrace:
			if o.Trace == nil {
				o.Trace = tracer
			} else {
				o.Trace = nil
			}
		case opProtect:
			if o.Protect == nil {
				o.Protect = &recHook{}
			} else {
				o.Protect = nil
			}
		}
		p = recompile(p, from, info, cur, out, resultFn, def, o)
	}
	for i, b := range cur {
		if out[b] {
			delete(out, b)
			p = recompile(p, i, info, cur, out, resultFn, def, o)
		}
	}
	keep := 0
	for keep < len(cur) && keep < len(bindings) && cur[keep] == bindings[keep] {
		keep++
	}
	if keep < len(cur) {
		p = recompile(p, keep, info, bindings[:keep], nil, resultFn, def, o)
	}
	for n := keep + 1; n <= len(bindings); n++ {
		p = recompile(p, n-1, info, bindings[:n], nil, resultFn, def, o)
	}
	return recompile(p, len(bindings), info, bindings, nil, resultFn, def, opts)
}

// recompile compiles list from prev as an event's recompile does after a
// change at position from: it keeps prev's steps of the bindings ahead of
// from, found walking back from prev's end, and lowers list[from:] but the
// bindings compiled out. The list's bindings are distinct, as an event's
// are.
func recompile(prev *Plan, from int, info EventInfo, list []*Binding, out map[*Binding]bool, resultFn ResultFn, def *Binding, opts Options) *Plan {
	keep := 0
	if prev == nil {
		from = 0 // a first plan lowers the whole list
	} else {
		ahead := make(map[*Binding]bool, from)
		for _, b := range list[:from] {
			ahead[b] = true
		}
		for keep = prev.Steps(); keep > 0 && !ahead[prev.StepBinding(keep-1)]; keep-- {
		}
	}
	var suffix []*Binding
	for _, b := range list[from:] {
		if !out[b] {
			suffix = append(suffix, b)
		}
	}
	return Compile(prev, keep, info, suffix, resultFn, def, opts)
}

// genDecoys builds the bindings chainPlan installs and uninstalls around
// the list's: an equality on argument 0 (so it joins or splits a run), a
// filter and an async binding (boundary steps, which split a run). A plan
// that still holds one is never raised. Each call builds new ones, so a
// list never holds one binding twice.
func genDecoys(arity int, k uint64, cell *atomic.Uint64) []*Binding {
	g := Guard{Pred: GlobalEq(cell, k)}
	if arity > 0 {
		g = Guard{Pred: ArgEq(0, k)}
	}
	nop := func(any, []any) any { return nil }
	return []*Binding{
		{Guards: []Guard{g}, Fn: nop, Name: "fuzz.Decoy"},
		{Filter: true, Fn: nop, Name: "fuzz.DecoyFilter"},
		{Async: true, Fn: nop, Name: "fuzz.DecoyAsync"},
	}
}

// FuzzTreeDispatch compiles a random binding list under every optimizer
// configuration — including the guard index on both walks, the flattened
// shape-specialized stencil, metered raises (the observed walk) and the
// traced routine — twice: from scratch, and through a random line of plans
// each compiled from the last (chainPlan). The two must disassemble
// byte-identically, and each must fire the same handler and filter
// sequence as the reference model, merge results identically, fall back to
// the default handler on the same raises, and count the same firings — per
// binding, for the default handler, and in the fired total.
func FuzzTreeDispatch(f *testing.F) {
	for _, seed := range indexSeeds {
		for _, result := range [][]byte{{0, 0}, {1, 1}, {1, 0}} { // void, fold, ambiguous
			for _, def := range []byte{0, 1} {
				header := []byte{seed.arity, byte(len(seed.bindings) - 1), result[0], result[1], 1, def}
				f.Add(seedJoin(header, seedJoin(seed.bindings...), indexSeedRaises))
			}
		}
	}
	f.Add([]byte{1, 4, 0, 0, 3, 1, 7, 2, 0, 5, 5, 2, 1, 1})
	f.Add([]byte{2, 8})
	// Lines of plans aimed at incremental installation: header, bindings,
	// four one-word raises, then the chain ops. Zero ops append the list
	// one binding at a time.
	chained := func(def byte, bindings [][]byte, ops ...byte) {
		header := []byte{1, byte(len(bindings) - 1), 1, 1, 1, def}
		f.Add(seedJoin(header, seedJoin(bindings...), []byte{1, 2, 0, 3, byte(len(ops) / 2)}, ops))
	}
	eqs := func(keys ...byte) [][]byte {
		var out [][]byte
		for _, k := range keys {
			out = append(out, seedEq(0, k))
		}
		return out
	}
	// The fourth append makes the run reach treeThreshold.
	chained(0, eqs(1, 2, 3, 1, 2))
	// An append after an uninstall of the last binding, which must copy.
	chained(0, eqs(1, 2, 1, 3, 2, 1), opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0, opUninstLast, 0)
	// Appends that grow the index table, at the sixth and the eleventh step.
	chained(0, eqs(1, 2, 3, 0, 1, 2, 3, 1, 2, 1, 2, 3))
	// Appends into a run after a truncation: the chain's marks lie past the
	// plan's end, so they copy.
	chained(0, eqs(1, 2, 3, 1, 2, 3, 1, 2), opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0,
		opAppend, 0, opUninstLast, 0, opUninstLast, 0, opAppend, 0, opAppend, 0, opAppend, 0)
	// In-place appends that grow the table twice (at 6 and 11 steps) over
	// links onto earlier chains and new keys alike.
	chained(0, eqs(1, 2, 3, 4, 1, 5, 2, 6, 3, 7, 1, 8, 2, 9, 1, 3), opAppend, 0, opAppend, 0, opAppend, 0,
		opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0,
		opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0)
	// Appends behind a binding compiled out at the run's end, then ahead of
	// it once it is compiled back in.
	chained(0, eqs(1, 2, 3, 1, 2, 3, 1), opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0,
		opQuarantine, 4, opAppend, 0, opQuarantine, 4, opAppend, 0, opQuarantine, 1, opRecompile, 0)
	// Appends behind a filter, ahead of the run and splitting it.
	chained(0, append(append(append([][]byte{seedFilter(0, 2)}, eqs(1, 2, 1, 3, 2)...), seedFilter(0, 1)), eqs(1, 2)...))
	// An append with a default handler installed.
	chained(1, eqs(1, 2, 3, 1, 2))
	// First, Before/After and middle uninstalls of decoys, and toggles.
	chained(1, eqs(1, 2, 3, 1, 2, 3), opAppend, 0, opFirst, 0, opAppend, 0, opAppend, 0, opBefore, 2,
		opTrace, 0, opAppend, 0, opUninstMid, 0, opProtect, 0, opAppend, 0, opFirst, 2, opRecompile, 0)
	chained(0, eqs(1, 2, 3, 1, 2, 3, 1), opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0, opAppend, 0,
		opUninstMid, 1, opBefore, 1, opProtect, 0, opTrace, 0, opUninstLast, 0, opUninstLast, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		arity := int(r.byte() % 7) // 0..6: every arity shape plus arity-any
		n := 1 + int(r.byte()%16)
		hasResult := r.byte()%2 == 1
		foldResults := r.byte()%2 == 1 && hasResult
		var cell atomic.Uint64
		cell.Store(uint64(r.byte() % 4))
		hasDefault := r.byte()%2 == 1

		var fired []int
		bindings := genBindings(r, n, arity, &cell, "fuzz.H",
			func(i int) { fired = append(fired, i) })
		// The default handler reports index n and counts its invocations.
		var defaultB *Binding
		var defaultFired int64
		if hasDefault {
			defaultB = &Binding{
				Fn:   func(any, []any) any { defaultFired++; return uint64(n) },
				Name: "fuzz.Default",
				Tag:  n,
			}
		}

		// naive is the reference model: it returns the bindings that fire,
		// filters included, in plan order, the handlers among them, and the
		// handlers among those whose result returns to the raiser (all but
		// the async ones). A passing filter rewrites the model's copy of the
		// frame for every binding behind it.
		naive := func(args []any) (fired, handled, results []int) {
			frame := append([]any(nil), args...)
			for i, b := range bindings {
				if !naivePasses(b, frame) {
					continue
				}
				fired = append(fired, i)
				switch {
				case b.Filter:
					b.Closure.(rewrite).apply(frame)
				case b.Async:
					handled = append(handled, i)
				default:
					handled = append(handled, i)
					results = append(results, i)
				}
			}
			return fired, handled, results
		}

		var resultFn ResultFn
		if foldResults {
			resultFn = func(acc, res any, index int) any {
				sum, _ := acc.(uint64) // nil until the first result: index 0 may be an async firing
				return sum + res.(uint64)
			}
		}

		// The raises, then the chain ops.
		var raises [4][]any
		for i := range raises {
			raises[i] = genArgs(r, arity)
		}
		ops := make([]byte, 2*int(r.byte()%chainOpsLimit))
		for i := range ops {
			ops[i] = r.byte()
		}
		decoy := func(x int) *Binding { return genDecoys(arity, 1, &cell)[x%3] }

		tracer := trace.New(trace.Config{Capacity: 64})
		supervised := 0 // invocations through a fake supervisor
		info := EventInfo{Name: "Fuzz.Tree", Arity: arity, HasResult: hasResult}
		configs := []fuzzConfig{
			{},                                // the stencil, through the guard index
			{Options: Options{Trace: tracer}}, // every raise sampled: the recorder on the observed walk
			{Metered: true},                   // the observed walk through the index, charged
		}
		for _, opts := range configs {
			opts.Options = fakeSupervisors(opts.Options, nil, &supervised)
			scratch := Compile(nil, 0, info, bindings, resultFn, defaultB, opts.Options)
			chained := chainPlan(ops, info, bindings, decoy, resultFn, defaultB, opts.Options, tracer)
			if got, want := chained.Disassemble(), scratch.Disassemble(); got != want {
				t.Fatalf("opts %+v ops %v: the chained plan disassembles\n%s\nfrom scratch\n%s", opts, ops, got, want)
			}
			for _, plan := range []*Plan{scratch, chained} {
				for _, args := range raises {
					want, handled, results := naive(args)
					wantDefault := hasDefault && len(handled) == 0
					var wantDefaultFired int64
					if wantDefault {
						wantDefaultFired = 1
					}
					var excess stripe.Counter
					fired, defaultFired, supervised = nil, 0, 0
					frame := append([]any(nil), args...) // the filters rewrite it
					out := plan.Execute(&Env{CPU: meteredCPU(opts.Metered), FiredExcess: &excess}, frame, 0)
					if len(fired) != len(want) {
						t.Fatalf("opts %+v args %v: fired %v, model %v", opts, args, fired, want)
					}
					wantSupervised := 0
					for _, i := range handled {
						if bindings[i].Async || bindings[i].Ephemeral {
							wantSupervised++
						}
					}
					if supervised != wantSupervised {
						t.Fatalf("opts %+v args %v: %d invocations through a supervisor, model %d",
							opts, args, supervised, wantSupervised)
					}
					for i := range want {
						if fired[i] != want[i] {
							t.Fatalf("opts %+v args %v: order %v, model %v", opts, args, fired, want)
						}
					}
					if out.Fired != len(handled) {
						t.Fatalf("opts %+v args %v: Outcome.Fired %d, model %d",
							opts, args, out.Fired, len(handled))
					}
					if out.UsedDefault != wantDefault {
						t.Fatalf("opts %+v args %v: UsedDefault %v, model %v",
							opts, args, out.UsedDefault, wantDefault)
					}
					if hasResult && (len(handled) > 0 || wantDefault) {
						var wantRes any // nil when only async handlers fired
						switch {
						case wantDefault:
							wantRes = uint64(n)
						case len(results) == 0:
						case foldResults:
							var sum uint64
							for _, i := range results {
								sum += uint64(i)
							}
							wantRes = sum
						default:
							wantRes = uint64(results[len(results)-1])
						}
						if out.Result != wantRes {
							t.Fatalf("opts %+v args %v: result %v, model %v",
								opts, args, out.Result, wantRes)
						}
						if wantAmb := !foldResults && len(results) > 1; out.Ambiguous != wantAmb {
							t.Fatalf("opts %+v args %v: ambiguous %v, model %v",
								opts, args, out.Ambiguous, wantAmb)
						}
					}

					// Statistics: whichever executor the configuration reached
					// (bypass, stencil, general, sampled), the raise's one frame
					// plus its excess must count what the model fired, filters
					// and the default handler's firing included; the fire log
					// above holds the bindings'.
					if defaultFired != wantDefaultFired {
						t.Fatalf("opts %+v args %v: default fired %d, model %d",
							opts, args, defaultFired, wantDefaultFired)
					}
					if wantTotal := int64(len(want)) + wantDefaultFired; 1+excess.Load() != wantTotal {
						t.Fatalf("opts %+v args %v: 1 frame + FiredExcess %d, model %d",
							opts, args, excess.Load(), wantTotal)
					}
				}
			}
		}
	})
}

// frameTotals folds per-frame Outcomes the way the dispatcher's batch
// outcome does.
type frameTotals struct {
	Fired     int64
	Defaulted int
	NoHandler int
	Ambiguous int
	Result    any // the last frame's
}

func (b *frameTotals) add(o Outcome) {
	b.Fired += int64(o.Fired)
	switch {
	case o.UsedDefault:
		b.Defaulted++
	case o.Fired == 0:
		b.NoHandler++
	}
	if o.Ambiguous {
		b.Ambiguous++
	}
	b.Result = o.Result
}

// FuzzBatchDispatch checks a batch, run as the dispatcher runs it (the
// bypass frame loop, else a loop of Execute), against the same reference
// the single-raise fuzzers use: for a random binding list and a
// random frame stream, dispatching the stream as one unsplit batch, as a
// sequence of randomly split sub-batches, and as a loop of single Execute
// calls must fire the handler sequence the naive model fires, fold the same
// outcome, and settle the same FiredTotal statistics under every
// optimizer configuration — including when a handler uninstalls itself in
// the middle of the stream, which a batch must notice before the next frame
// exactly as a loop of raises does.
//
// A stream may also arm faults: handlers that panic after they ran (and
// after they uninstalled themselves) and out-of-line guards that panic.
// Every configuration then compiles fault capture in, under a recording
// hook, and the bare and the metered (observed) barrier and the naive
// model must agree on the outcome, the fire counts, the fold indices and
// the ordered sequence of hook calls.
func FuzzBatchDispatch(f *testing.F) {
	frames := seedJoin([]byte{15}, indexSeedRaises, indexSeedRaises, []byte{3, 2, 1, 3})
	for _, seed := range indexSeeds {
		for _, result := range [][]byte{{0, 0}, {1, 1}} { // void, fold
			for _, faults := range [][]byte{{0}, {1, 0, 0, 0, 0}} { // bare, hardened with nothing armed
				header := []byte{seed.arity, byte(len(seed.bindings) - 1), result[0], result[1], 1, seed.churn + 1}
				f.Add(seedJoin(header, faults, seedJoin(seed.bindings...), frames))
			}
		}
	}
	// Faults over the duplicate-constant run (steps 0, 2 and 5 chain on 1; 5
	// is the last step): a handler or guard panic on the first, a chained
	// middle and the last step, and every step panicking either way.
	chained := indexSeeds[0]
	for _, mask := range []byte{1 << 0, 1 << 2, 1 << 5, 0xFF} {
		for _, faults := range [][]byte{{1, mask, 0xFF, 0, 0}, {1, 0, 0, mask, 0xFF}, {1, mask, 0, mask >> 1, 0}} {
			for _, churn := range []byte{0, chained.churn + 1} {
				header := []byte{chained.arity, byte(len(chained.bindings) - 1), 1, 1, 1, churn}
				f.Add(seedJoin(header, faults, seedJoin(chained.bindings...), frames))
			}
		}
	}
	// Faults on a boundary step: the filter ahead of a run (step 0), whose
	// handler panics after its rewrite, or a panicking guard skips it, and
	// the walk resumes behind it at the run head; the async step splitting a
	// run (step 2) and the ephemeral one between two runs (step 4), whose
	// handlers panic under the supervisor and whose guards panic behind the
	// barrier.
	for _, fs := range []struct {
		seed int
		step uint
	}{{6, 0}, {8, 2}, {9, 4}} {
		seed := indexSeeds[fs.seed]
		for _, faults := range [][]byte{{1, 1 << fs.step, 0, 0, 0}, {1, 0, 0, 1 << fs.step, 0}} {
			header := []byte{seed.arity, byte(len(seed.bindings) - 1), 1, 1, 1, seed.churn + 1}
			f.Add(seedJoin(header, faults, seedJoin(seed.bindings...), frames))
		}
	}
	f.Add([]byte{1, 3, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 2, 8, 3, 1, 4, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{3, 2, 1, 1, 3, 9, 1, 5, 0, 2, 0})
	// Bypass plans, which a batch runs through ExecuteBatch: a lone
	// unguarded binding; one that uninstalls itself at its first firing,
	// which stops the frame loop; and two whose first uninstalls itself,
	// which leaves a bypass the rest of the stream batches on.
	for _, header := range [][]byte{{2, 0, 0, 0, 1, 0}, {1, 0, 1, 0, 1, 1}, {1, 1, 1, 0, 1, 1}} {
		f.Add(seedJoin(header, []byte{0}, []byte{kindUnguarded, kindUnguarded}[:header[1]+1], frames))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		arity := int(r.byte() % 9) // 0..8: the pooled widths 0..5 and wider frames
		n := 1 + int(r.byte()%16)
		hasResult := r.byte()%2 == 1
		foldResults := r.byte()%2 == 1 && hasResult
		var cell atomic.Uint64
		cell.Store(uint64(r.byte() % 4))
		// churn-1, when it names a binding, is the one that uninstalls itself
		// the first time it fires.
		churn := int(r.byte()) - 1
		if churn >= n {
			churn = -1
		}
		// The armed faults: bit i of panicH makes handler i panic once it has
		// run, bit i of panicG gives binding i a last, panicking call guard.
		var hook *recHook
		var panicH, panicG uint16
		if r.byte()%2 == 1 {
			hook = &recHook{}
			panicH = uint16(r.byte()) | uint16(r.byte())<<8
			panicG = uint16(r.byte()) | uint16(r.byte())<<8
		}

		info := EventInfo{Name: "Fuzz.Batch", Arity: arity, HasResult: hasResult}
		var resultFn ResultFn
		var folds []int // the index each result-handler call carried
		if foldResults {
			resultFn = func(acc, res any, index int) any {
				folds = append(folds, index)
				sum, _ := acc.(uint64) // nil when every earlier firing panicked
				return sum + res.(uint64)
			}
		}

		// live is the published-plan cell, as the dispatcher keeps one per
		// event: publish compiles the plan of the bindings still installed,
		// under the configuration being tested, from the live one (as
		// Event.recompile does), and stores it.
		var (
			fired     []int
			live      atomic.Pointer[Plan]
			opts      fuzzConfig
			bindings  []*Binding
			uninstall = -1 // the binding compiled out, or -1
		)
		publish := func(from int) {
			installed := bindings
			if uninstall >= 0 {
				installed = append(append([]*Binding(nil), bindings[:uninstall]...), bindings[uninstall+1:]...)
			}
			o := fakeSupervisors(opts.Options, hook, new(int))
			if hook != nil {
				o.Protect = hook
			}
			live.Store(recompile(live.Load(), from, info, installed, nil, resultFn, nil, o))
		}
		bindings = genBindings(r, n, arity, &cell, "fuzz.B", func(i int) {
			fired = append(fired, i)
			if i == churn && uninstall < 0 {
				uninstall = i
				publish(i)
			}
		})
		// The model evaluates the guards as generated; the compiled bindings
		// carry the armed faults. The panicking guard goes last, behind every
		// reordering, so it is reached exactly when the others pass.
		model := make([]*Binding, n)
		for i, b := range bindings {
			model[i] = &Binding{Guards: b.Guards, Filter: b.Filter, Closure: b.Closure}
			if panicG&(1<<i) != 0 {
				b.Guards = append(b.Guards[:len(b.Guards):len(b.Guards)],
					Guard{Fn: func(any, []any) bool { panic("fuzz guard") }})
			}
			if run := b.Fn; panicH&(1<<i) != 0 {
				b.Fn = func(c any, args []any) any {
					run(c, args)
					panic("fuzz handler")
				}
			}
		}

		// The frame stream and a set of random split points over it. Filters
		// rewrite the frames they run on, so every run dispatches fresh
		// copies of these (see run).
		nFrames := 1 + int(r.byte()%24)
		frames0 := make([][]any, nFrames)
		for i := range frames0 {
			frames0[i] = genArgs(r, arity)
		}
		frames := make([][]any, nFrames)
		var flat []any // the same frames, row-major: the batch layout
		splits := []int{0}
		for at := 1 + int(r.byte()%4); at < nFrames; at += 1 + int(r.byte()%4) {
			splits = append(splits, at)
		}
		splits = append(splits, nFrames)

		// The naive model: every guard of every installed binding, verbatim,
		// frame by frame, on the frame as the filters ahead of it rewrote
		// it. An uninstall takes effect at the next frame — the raise in
		// flight finishes on the plan it loaded.
		var wantFired []int
		var wantFaults []faultCall
		gone := -1
		for _, fr := range frames0 {
			fr = append([]any(nil), fr...)
			skip := gone
			for i, b := range model {
				switch {
				case i == skip || !naivePasses(b, fr):
				case panicG&(1<<i) != 0: // evaluates false: the step is skipped
					wantFaults = append(wantFaults, faultCall{guard: true, tag: i})
				default:
					wantFired = append(wantFired, i)
					if b.Filter {
						b.Closure.(rewrite).apply(fr)
					}
					if i == churn {
						gone = i
					}
					// Fired, with no result: behind the barrier, or, async or
					// ephemeral, reported by the fake supervisor.
					if panicH&(1<<i) != 0 {
						wantFaults = append(wantFaults, faultCall{tag: i})
					}
				}
			}
		}

		// runBatch dispatches frames [lo, hi) as the dispatcher's batch
		// does: a Batchable plan, unmetered, through ExecuteBatch, resumed on
		// the plan now published when a call stops early because its plan
		// was superseded; any other plan one frame at a time through
		// Execute.
		runBatch := func(env *Env, lo, hi int) frameTotals {
			var out frameTotals
			for lo < hi {
				p := live.Load()
				if env.CPU != nil || !p.Batchable() {
					out.add(p.Execute(env, flat[lo*arity:(lo+1)*arity:(lo+1)*arity], 0))
					lo++
					continue
				}
				res, m := p.ExecuteBatch(flat[lo*arity:hi*arity], arity, hi-lo, &live)
				if m <= 0 {
					t.Fatalf("ExecuteBatch made no progress on %d frames", hi-lo)
				}
				out.Fired += int64(m)
				out.Result = res
				lo += m
			}
			return out
		}

		// run resets the population to fully installed and the frames to
		// fresh copies, and measures one way of dispatching the stream.
		run := func(dispatch func(env *Env) frameTotals) (frameTotals, []int, int64) {
			from := len(bindings)
			if uninstall >= 0 {
				from, uninstall = uninstall, -1
			}
			publish(from)
			flat = flat[:0]
			for i, fr := range frames0 {
				frames[i] = append([]any(nil), fr...)
				flat = append(flat, fr...)
			}
			fired, folds = nil, nil
			if hook != nil {
				hook.calls = nil
			}
			// The fired total: every frame once, as the dispatcher's raised
			// total counts it, plus the executors' excess.
			var excess stripe.Counter
			out := dispatch(&Env{CPU: meteredCPU(opts.Metered), FiredExcess: &excess})
			return out, fired, int64(nFrames) + excess.Load()
		}

		// checkFaults compares what the hook and the result handler saw with
		// the model and with the first configuration's loop of raises — the
		// stencil, which every later executor must match.
		var refOut *frameTotals
		var refFolds []int
		checkFaults := func(label string, out frameTotals) {
			if hook != nil && !reflect.DeepEqual(hook.calls, wantFaults) {
				t.Fatalf("opts %+v %s: hook calls %+v, model %+v", opts, label, hook.calls, wantFaults)
			}
			if !hasResult {
				out.Result = nil // not meaningful: the direct bypass passes the handler's through
			}
			if refOut == nil {
				refOut, refFolds = &out, folds
			}
			if out != *refOut || !reflect.DeepEqual(folds, refFolds) {
				t.Fatalf("opts %+v %s: outcome %+v folds %v, the stencil's %+v folds %v",
					opts, label, out, folds, *refOut, refFolds)
			}
		}

		tracer := trace.New(trace.Config{Capacity: 64})
		for _, opts = range []fuzzConfig{
			{}, // the stencil, through the guard index
			{Options: Options{Trace: tracer}},
			{Metered: true},
		} {
			// Reference: a loop of single raises, each loading the published
			// plan afresh, folded the way the dispatcher's batch folds.
			loopOut, loopFired, loopTotal := run(func(env *Env) frameTotals {
				var out frameTotals
				for _, fr := range frames {
					out.add(live.Load().Execute(env, fr, 0))
				}
				return out
			})
			if len(loopFired) != len(wantFired) {
				t.Fatalf("opts %+v loop: fired %v, model %v", opts, loopFired, wantFired)
			}
			for i := range wantFired {
				if loopFired[i] != wantFired[i] {
					t.Fatalf("opts %+v loop: order %v, model %v", opts, loopFired, wantFired)
				}
			}
			checkFaults("loop", loopOut)
			if loopTotal != int64(len(wantFired)) {
				t.Fatalf("opts %+v loop: frames + FiredExcess %d, model %d", opts, loopTotal, len(wantFired))
			}

			check := func(label string, out frameTotals, gotFired []int, total int64) {
				if len(gotFired) != len(loopFired) {
					t.Fatalf("opts %+v %s: fired %v, loop %v", opts, label, gotFired, loopFired)
				}
				for i := range loopFired {
					if gotFired[i] != loopFired[i] {
						t.Fatalf("opts %+v %s: order %v, loop %v", opts, label, gotFired, loopFired)
					}
				}
				checkFaults(label, out)
				if total != loopTotal {
					t.Fatalf("opts %+v %s: frames + FiredExcess %d, loop %d", opts, label, total, loopTotal)
				}
			}

			// One unsplit batch.
			out, gotFired, total := run(func(env *Env) frameTotals {
				return runBatch(env, 0, nFrames)
			})
			check("unsplit", out, gotFired, total)

			// The same stream as randomly split sub-batches.
			out, gotFired, total = run(func(env *Env) frameTotals {
				var out frameTotals
				for s := 0; s+1 < len(splits); s++ {
					o := runBatch(env, splits[s], splits[s+1])
					out.Fired += o.Fired
					out.Defaulted += o.Defaulted
					out.NoHandler += o.NoHandler
					out.Ambiguous += o.Ambiguous
					if splits[s+1] > splits[s] {
						out.Result = o.Result
					}
				}
				return out
			})
			check("split", out, gotFired, total)
		}
	})
}
