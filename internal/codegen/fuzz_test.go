package codegen

import (
	"sync/atomic"
	"testing"

	"spin/internal/stripe"
	"spin/internal/trace"
)

// Differential fuzzing: the optimized compiled plan — peephole
// simplification, guard reordering, inline evaluation, the single-binding
// bypass, the decision tree, the flattened shape-specialized stencil, and
// sampled (span-recording) raises — must fire exactly the same handlers,
// in the same order, as a naive reference model that walks the binding
// list evaluating every guard verbatim.

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

// genArgs decodes one raise argument vector of small words.
func genArgs(r *fuzzReader, arity int) []any {
	args := make([]any, arity)
	for i := range args {
		args[i] = uint64(r.byte() % 4)
	}
	return args
}

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

		// Property 1: Simplify is observationally identical.
		simplified := pred.Simplify()
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
		for _, opts := range []Options{
			{},
			{DisableInline: true, DisableBypass: true},
			{DisablePeephole: true},
			{DisableSpecialize: true},
		} {
			plan := Compile(EventInfo{Name: "Fuzz.Pred", Arity: arity},
				[]*Binding{binding}, nil, nil, opts)
			r2 := *r // same raises for every configuration
			for trial := 0; trial < 4; trial++ {
				args := genArgs(&r2, arity)
				fired = 0
				plan.Execute(&Env{}, args, 0)
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

// FuzzTreeDispatch compiles a random binding list under every optimizer
// configuration — including the decision tree, the flattened
// shape-specialized executors, and the traced routine — and checks each
// fires the same handler sequence as the reference model, merges results
// identically, and produces the same statistics totals through the
// per-fire and batched counting protocols.
func FuzzTreeDispatch(f *testing.F) {
	// A decision-tree-shaped seed: six consecutive ArgEq guards on arg 0.
	f.Add([]byte{0, 6, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 0, 1, 0, 1, 1, 0, 2, 0, 1, 2, 3})
	f.Add([]byte{1, 4, 0, 3, 1, 7, 2, 0, 5, 5, 2, 1, 1})
	f.Add([]byte{2, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		arity := int(r.byte() % 7) // 0..6: every arity shape plus arity-any
		n := 1 + int(r.byte()%10)
		hasResult := r.byte()%2 == 1
		foldResults := hasResult && r.byte()%2 == 1
		var cell atomic.Uint64
		cell.Store(uint64(r.byte() % 4))

		var fired []int
		preds := make([]*Pred, n) // reference model: nil = unguarded
		bindings := make([]*Binding, n)
		for i := 0; i < n; i++ {
			switch r.byte() % 4 {
			case 0: // unguarded
			case 3: // arbitrary predicate tree
				preds[i] = genPred(r, 2, arity, &cell)
			default: // ArgEq, biased so consecutive runs form decision trees
				argB := int(r.byte())
				k := uint64(r.byte() % 4)
				if arity == 0 {
					preds[i] = GlobalEq(&cell, k)
				} else {
					preds[i] = ArgEq(argB%arity, k)
				}
			}
			i := i
			bindings[i] = &Binding{
				Fn: func(any, []any) any {
					fired = append(fired, i)
					return uint64(i)
				},
				Name:      "fuzz.H",
				FireCount: new(stripe.Counter),
			}
			bindings[i].Tag = i
			if preds[i] != nil {
				bindings[i].Guards = []Guard{{Pred: preds[i]}}
			}
		}

		naive := func(args []any) []int {
			var out []int
			for i, p := range preds {
				if p == nil || p.Eval(args) {
					out = append(out, i)
				}
			}
			return out
		}

		var resultFn ResultFn
		if foldResults {
			resultFn = func(acc, res any, index int) any {
				if index == 0 {
					return res
				}
				return acc.(uint64) + res.(uint64)
			}
		}

		tracer := trace.New(trace.Config{Capacity: 64})
		info := EventInfo{Name: "Fuzz.Tree", Arity: arity, HasResult: hasResult}
		configs := []Options{
			{},
			{EnableDecisionTree: true},
			{DisableInline: true, DisableBypass: true, DisablePeephole: true},
			{EnableDecisionTree: true, Trace: tracer}, // every raise sampled: recorder on
			{DisableSpecialize: true},                 // general executor only
			{Trace: tracer},                           // sampling entry over flat-eligible plans
		}
		for trial := 0; trial < 4; trial++ {
			args := genArgs(r, arity)
			want := naive(args)
			for _, opts := range configs {
				plan := Compile(info, bindings, resultFn, nil, opts)
				fired = nil
				out := plan.Execute(&Env{}, args, 0)
				if len(fired) != len(want) {
					t.Fatalf("opts %+v args %v: fired %v, model %v", opts, args, fired, want)
				}
				for i := range want {
					if fired[i] != want[i] {
						t.Fatalf("opts %+v args %v: order %v, model %v", opts, args, fired, want)
					}
				}
				if out.Fired != len(want) {
					t.Fatalf("opts %+v args %v: Outcome.Fired %d, model %d",
						opts, args, out.Fired, len(want))
				}
				if hasResult && len(want) > 0 {
					var wantRes uint64
					if foldResults {
						for _, i := range want {
							wantRes += uint64(i)
						}
					} else {
						wantRes = uint64(want[len(want)-1])
					}
					if got, ok := out.Result.(uint64); !ok || got != wantRes {
						t.Fatalf("opts %+v args %v: result %v, model %d",
							opts, args, out.Result, wantRes)
					}
					if wantAmb := !foldResults && len(want) > 1; out.Ambiguous != wantAmb {
						t.Fatalf("opts %+v args %v: ambiguous %v, model %v",
							opts, args, out.Ambiguous, wantAmb)
					}
				}

				// Statistics twins: the per-fire OnFire protocol must match
				// the model for every plan, and on specialized untraced plans
				// (the only ones that take the batched route) the batched
				// FireCount/FiredTotal protocol must produce the same totals.
				perFire := make([]int64, n)
				fired = nil
				plan.Execute(&Env{OnFire: func(tag any) {
					if i, ok := tag.(int); ok {
						perFire[i]++
					}
				}}, args, 0)
				for i, got := range perFire {
					var wantN int64
					for _, w := range want {
						if w == i {
							wantN++
						}
					}
					if got != wantN {
						t.Fatalf("opts %+v args %v binding %d: per-fire %d, model %d",
							opts, args, i, got, wantN)
					}
				}
				if plan.Specialized() && opts.Trace == nil {
					before := make([]int64, n)
					for i, b := range bindings {
						before[i] = b.FireCount.Load()
					}
					var total stripe.Counter
					fired = nil
					plan.Execute(&Env{FiredTotal: &total}, args, 0)
					if total.Load() != int64(len(want)) {
						t.Fatalf("opts %+v args %v: batched total %d, model %d",
							opts, args, total.Load(), len(want))
					}
					for i, b := range bindings {
						if batched := b.FireCount.Load() - before[i]; batched != perFire[i] {
							t.Fatalf("opts %+v args %v binding %d: per-fire %d, batched %d",
								opts, args, i, perFire[i], batched)
						}
					}
				}
			}
		}
	})
}

// FuzzBatchDispatch checks the batched executor tier against the same
// reference the single-raise fuzzers use: for a random binding list and a
// random frame stream, dispatching the stream as one unsplit batch, as a
// sequence of randomly split sub-batches, and as a loop of single Execute
// calls must fire the same handler sequence, fold the same outcome, and
// settle the same FireCount/FiredTotal statistics under every optimizer
// configuration.
func FuzzBatchDispatch(f *testing.F) {
	f.Add([]byte{1, 3, 0, 0, 1, 0, 1, 1, 0, 2, 8, 3, 1, 4, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{0, 6, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 0, 16, 0, 128, 2})
	f.Add([]byte{3, 2, 1, 1, 3, 9, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		arity := int(r.byte() % 9) // 0..8: the pooled widths 0..5 and wider frames
		n := 1 + int(r.byte()%8)
		hasResult := r.byte()%2 == 1
		foldResults := hasResult && r.byte()%2 == 1
		var cell atomic.Uint64
		cell.Store(uint64(r.byte() % 4))

		var fired []int
		preds := make([]*Pred, n)
		bindings := make([]*Binding, n)
		for i := 0; i < n; i++ {
			switch r.byte() % 4 {
			case 0: // unguarded
			case 3:
				preds[i] = genPred(r, 2, arity, &cell)
			default:
				argB := int(r.byte())
				k := uint64(r.byte() % 4)
				if arity == 0 {
					preds[i] = GlobalEq(&cell, k)
				} else {
					preds[i] = ArgEq(argB%arity, k)
				}
			}
			i := i
			bindings[i] = &Binding{
				Fn: func(any, []any) any {
					fired = append(fired, i)
					return uint64(i)
				},
				Name:      "fuzz.B",
				FireCount: new(stripe.Counter),
			}
			bindings[i].Tag = i
			if preds[i] != nil {
				bindings[i].Guards = []Guard{{Pred: preds[i]}}
			}
		}

		var resultFn ResultFn
		if foldResults {
			resultFn = func(acc, res any, index int) any {
				if index == 0 {
					return res
				}
				return acc.(uint64) + res.(uint64)
			}
		}

		// The frame stream and a set of random split points over it.
		nFrames := 1 + int(r.byte()%24)
		frames := make([]ArgFrame, nFrames)
		for i := range frames {
			frames[i] = genArgs(r, arity)
		}
		splits := []int{0}
		for at := 1 + int(r.byte()%4); at < nFrames; at += 1 + int(r.byte()%4) {
			splits = append(splits, at)
		}
		splits = append(splits, nFrames)

		// runBatch dispatches one frame span through ExecuteBatch, following
		// the continuation contract (with live == nil the executor must
		// consume every frame in one call, but the loop is the caller's
		// contract either way).
		runBatch := func(plan *Plan, env *Env, span []ArgFrame) BatchOutcome {
			var out BatchOutcome
			for len(span) > 0 {
				o, m := plan.ExecuteBatch(env, span, 0, nil)
				if m <= 0 {
					t.Fatalf("ExecuteBatch made no progress on %d frames", len(span))
				}
				out.Fired += o.Fired
				out.Defaulted += o.Defaulted
				out.NoHandler += o.NoHandler
				out.Ambiguous += o.Ambiguous
				out.Result = o.Result
				span = span[m:]
			}
			return out
		}

		// The env mirrors the dispatcher's: OnFire and FiredTotal land in the
		// SAME counters, so a path that takes the batched protocol (flat and
		// direct batch executors, flat single-raise) and a path that takes
		// the per-fire callback (general executor, sampled raises, direct
		// single raise) produce identical totals — which is exactly the
		// equivalence the dispatch layer depends on.
		mkEnv := func(total *stripe.Counter) *Env {
			return &Env{
				FiredTotal: total,
				OnFire: func(tag any) {
					total.Add(1)
					if i, ok := tag.(int); ok {
						bindings[i].FireCount.Add(1)
					}
				},
			}
		}

		tracer := trace.New(trace.Config{Capacity: 64})
		info := EventInfo{Name: "Fuzz.Batch", Arity: arity, HasResult: hasResult}
		configs := []Options{
			{},
			{EnableDecisionTree: true},
			{DisableInline: true, DisableBypass: true, DisablePeephole: true},
			{EnableDecisionTree: true, Trace: tracer},
			{DisableSpecialize: true},
			{Trace: tracer},
		}
		for _, opts := range configs {
			plan := Compile(info, bindings, resultFn, nil, opts)

			// Reference: a loop of single raises, folded the way the batch
			// tier folds.
			var loopOut BatchOutcome
			fired = nil
			var loopTotal stripe.Counter
			loopBase := make([]int64, n)
			for i, b := range bindings {
				loopBase[i] = b.FireCount.Load()
			}
			for _, fr := range frames {
				loopOut.Add(plan.Execute(mkEnv(&loopTotal), fr, 0))
			}
			loopFired := append([]int(nil), fired...)
			loopCounts := make([]int64, n)
			for i, b := range bindings {
				loopCounts[i] = b.FireCount.Load() - loopBase[i]
			}

			check := func(label string, out BatchOutcome, gotFired []int, total int64, counts []int64) {
				if len(gotFired) != len(loopFired) {
					t.Fatalf("opts %+v %s: fired %v, loop %v", opts, label, gotFired, loopFired)
				}
				for i := range loopFired {
					if gotFired[i] != loopFired[i] {
						t.Fatalf("opts %+v %s: order %v, loop %v", opts, label, gotFired, loopFired)
					}
				}
				if out != loopOut {
					t.Fatalf("opts %+v %s: outcome %+v, loop %+v", opts, label, out, loopOut)
				}
				if total != loopTotal.Load() {
					t.Fatalf("opts %+v %s: FiredTotal %d, loop %d", opts, label, total, loopTotal.Load())
				}
				for i := range counts {
					if counts[i] != loopCounts[i] {
						t.Fatalf("opts %+v %s binding %d: FireCount %d, loop %d",
							opts, label, i, counts[i], loopCounts[i])
					}
				}
			}

			// One unsplit batch.
			var total stripe.Counter
			base := make([]int64, n)
			for i, b := range bindings {
				base[i] = b.FireCount.Load()
			}
			fired = nil
			out := runBatch(plan, mkEnv(&total), frames)
			counts := make([]int64, n)
			for i, b := range bindings {
				counts[i] = b.FireCount.Load() - base[i]
			}
			check("unsplit", out, fired, total.Load(), counts)

			// The same stream as randomly split sub-batches.
			var splitTotal stripe.Counter
			for i, b := range bindings {
				base[i] = b.FireCount.Load()
			}
			fired = nil
			var splitOut BatchOutcome
			for s := 0; s+1 < len(splits); s++ {
				o := runBatch(plan, mkEnv(&splitTotal), frames[splits[s]:splits[s+1]])
				splitOut.Fired += o.Fired
				splitOut.Defaulted += o.Defaulted
				splitOut.NoHandler += o.NoHandler
				splitOut.Ambiguous += o.Ambiguous
				if splits[s+1] > splits[s] {
					splitOut.Result = o.Result
				}
			}
			for i, b := range bindings {
				counts[i] = b.FireCount.Load() - base[i]
			}
			check("split", splitOut, fired, splitTotal.Load(), counts)
		}
	})
}
