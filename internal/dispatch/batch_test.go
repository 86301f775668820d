package dispatch

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"spin/internal/admit"
	"spin/internal/codegen"
	"spin/internal/fault"
	"spin/internal/rtti"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// Differential harness for the batched raise ingress: under every
// optimizer configuration and across batch sizes, a flat batch must be
// observably identical to a loop of single Raise calls — same handlers
// fired in the same order, same statistics, same results fold, same trace
// spans, same fault and admission ledgers — including plan churn in the
// middle of a batch.

// batchConfigs sweeps the code generator's optimization space: every
// configuration selects a different executor tier (the plain stencil's fast
// loop, decision tree, no bypass or peephole around the population's
// out-of-line handlers, and "interp": a metered dispatcher, whose batches
// are loops of single raises on the observed walk, which evaluates each
// step's guard list instead of its flattened leaves). opts returns a fresh
// option list per dispatcher.
var batchConfigs = []struct {
	name string
	opts func() []Option
}{
	{"default", func() []Option { return nil }},
	{"tree", func() []Option {
		return []Option{WithCodegenOptions(codegen.Options{EnableDecisionTree: true})}
	}},
	{"outofline", func() []Option {
		return []Option{WithCodegenOptions(codegen.Options{DisableBypass: true, DisablePeephole: true})}
	}},
	{"interp", func() []Option { return []Option{WithCPU(vtime.NewCPU(&vtime.Clock{}, vtime.AlphaModel()))} }},
}

// batchSizes are the batch lengths the differential tests sweep; 1 and 2
// cover the degenerate ends, 8, 64 and 1000 the fast loops at train
// lengths.
var batchSizes = []int{1, 2, 8, 64, 1000}

// installBatchPopulation installs a deterministic mixed handler
// population: unguarded handlers, an inline ArgEq predicate guard, an
// out-of-line functional guard, and a second predicate guard (so the
// decision-tree config has a hashable run). Each firing appends the
// handler's id to *log.
func installBatchPopulation(t *testing.T, e *Event, log *[]int) {
	t.Helper()
	add := func(id int, opts ...InstallOption) {
		_, err := e.Install(handler(voidProc(fmt.Sprintf("H%d", id), rtti.Word),
			func(clo any, args []any) any {
				*log = append(*log, id)
				return nil
			}), opts...)
		if err != nil {
			t.Fatalf("install %d: %v", id, err)
		}
	}
	add(0)
	add(1, WithGuard(Guard{Pred: codegen.ArgEq(0, 1)}))
	add(2, WithGuard(Guard{
		Proc: guardProc("G.Lt3", rtti.Word),
		Fn:   func(clo any, args []any) bool { return args[0].(uint64) < 3 },
	}))
	add(3, WithGuard(Guard{Pred: codegen.ArgEq(0, 2)}))
	add(4)
}

// batchTestFlat builds n one-word frames in RaiseBatch1's flat layout,
// cycling the argument through 0..4, so every guard in the population
// passes on some frames and fails on others.
func batchTestFlat(n int) []any {
	flat := make([]any, n)
	for i := range flat {
		flat[i] = uint64(i % 5)
	}
	return flat
}

// normalizeSpans prepares a tracer snapshot for differential comparison:
// spans sort by publication sequence, then the fields that legitimately
// differ between the batch and loop runs — sequence numbers, raise ids,
// and time stamps — are cleared. Everything else (kind, event, step,
// guard index, handler name, pass/inline flags, detail words, outcome
// flags) must match exactly.
func normalizeSpans(spans []trace.Span) []trace.Span {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	for i := range spans {
		spans[i].Seq = 0
		spans[i].Raise = 0
		spans[i].Start = 0
		spans[i].Cost = 0
	}
	return spans
}

// TestRaiseBatchMatchesLoop is the core differential test: for every
// optimizer configuration, traced and untraced, at every batch size, a
// RaiseBatch1 and a loop of Raise calls over identical twin dispatchers
// must fire the same handlers in the same order, report the same event
// statistics, produce an equivalent BatchOutcome, and (traced, at
// sample=1) record identical span streams.
func TestRaiseBatchMatchesLoop(t *testing.T) {
	for _, cfg := range batchConfigs {
		for _, traced := range []bool{false, true} {
			for _, n := range batchSizes {
				name := fmt.Sprintf("%s/n=%d", cfg.name, n)
				if traced {
					name += "/traced"
				}
				t.Run(name, func(t *testing.T) {
					db := New(cfg.opts()...)
					dl := New(cfg.opts()...)
					eb := mustDefine(t, db, "Batch.E", rtti.Sig(nil, rtti.Word))
					el := mustDefine(t, dl, "Batch.E", rtti.Sig(nil, rtti.Word))
					var logB, logL []int
					installBatchPopulation(t, eb, &logB)
					installBatchPopulation(t, el, &logL)
					var trB, trL *trace.Tracer
					if traced {
						// 1 in 3: a batch draws per frame, as the loop does.
						trB = trace.New(trace.Config{Capacity: 32768, Sample: 3})
						trL = trace.New(trace.Config{Capacity: 32768, Sample: 3})
						eb.Trace(trB)
						el.Trace(trL)
					}
					flat := batchTestFlat(n)

					out := eb.RaiseBatch1(flat)
					for i := range flat {
						if _, err := el.Raise(flat[i]); err != nil {
							t.Fatalf("loop raise %d: %v", i, err)
						}
					}

					if !reflect.DeepEqual(logB, logL) {
						t.Fatalf("fired sequences diverge:\nbatch %v\nloop  %v", logB, logL)
					}
					if out.Raised != n || out.Fired != int64(len(logL)) {
						t.Fatalf("outcome = %+v, want Raised=%d Fired=%d", out, n, len(logL))
					}
					if out.Rejected+out.Shed+out.NoHandler+out.Defaulted+out.Ambiguous != 0 {
						t.Fatalf("spurious dispositions in %+v", out)
					}
					if err := out.Err(); err != nil {
						t.Fatalf("batch err = %v", err)
					}
					sb, sl := eb.Stats(), el.Stats()
					if sb.Raised != sl.Raised || sb.Fired != sl.Fired {
						t.Fatalf("stats diverge: batch %+v loop %+v", sb, sl)
					}
					if traced {
						spansB := normalizeSpans(trB.Snapshot())
						spansL := normalizeSpans(trL.Snapshot())
						if !reflect.DeepEqual(spansB, spansL) {
							t.Fatalf("span streams diverge: batch %d spans, loop %d spans",
								len(spansB), len(spansL))
						}
					}

					// Second pass against the arity-specialized single raise:
					// identical again, on top of the first pass's totals.
					logB, logL = nil, nil
					out = eb.RaiseBatch1(flat)
					for i := range flat {
						if _, err := el.Raise1(flat[i]); err != nil {
							t.Fatalf("loop Raise1 %d: %v", i, err)
						}
					}
					if !reflect.DeepEqual(logB, logL) {
						t.Fatalf("RaiseBatch1 fired sequences diverge:\nbatch %v\nloop  %v", logB, logL)
					}
					if out.Raised != n || out.Fired != int64(len(logL)) {
						t.Fatalf("RaiseBatch1 outcome = %+v, want Raised=%d Fired=%d", out, n, len(logL))
					}
					sb, sl = eb.Stats(), el.Stats()
					if sb.Raised != sl.Raised || sb.Fired != sl.Fired {
						t.Fatalf("stats diverge after Raise1 pass: batch %+v loop %+v", sb, sl)
					}
				})
			}
		}
	}
}

// TestRaiseBatchResultFoldDefaultAndErrors covers the outcome-folding
// surfaces the main differential's void event cannot reach: result
// merging, the default handler, no-handler frames, ambiguous results, and
// wrong-width and ragged-tail rejection.
func TestRaiseBatchResultFoldDefaultAndErrors(t *testing.T) {
	for _, n := range batchSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			flat := batchTestFlat(n)

			// Result fold: two result handlers, results summed by the fold.
			mkFold := func(t *testing.T) *Event {
				d := New()
				e := mustDefine(t, d, "Batch.R", rtti.Sig(rtti.Word, rtti.Word))
				for id := 1; id <= 2; id++ {
					k := uint64(id)
					_, err := e.Install(Handler{
						Proc: resultProc(fmt.Sprintf("R%d", id), rtti.Word, rtti.Word),
						Fn:   func(clo any, args []any) any { return args[0].(uint64)*10 + k },
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := e.SetResultHandler(func(acc, res any, idx int) any {
					if acc == nil {
						return res
					}
					return acc.(uint64) + res.(uint64)
				}); err != nil {
					t.Fatal(err)
				}
				return e
			}
			eb, el := mkFold(t), mkFold(t)
			out := eb.RaiseBatch1(flat)
			var last any
			for i := range flat {
				res, err := el.Raise(flat[i])
				if err != nil {
					t.Fatalf("loop raise: %v", err)
				}
				last = res
			}
			if out.Raised != n || out.Result != last {
				t.Fatalf("fold outcome %+v, want Raised=%d Result=%v", out, n, last)
			}
			if sb, sl := eb.Stats(), el.Stats(); sb.Raised != sl.Raised || sb.Fired != sl.Fired {
				t.Fatalf("fold stats diverge: %+v vs %+v", sb, sl)
			}

			// Default handler: the only handler is guarded on arg==1, so
			// every other frame falls to the default.
			mkDef := func(t *testing.T) (*Event, *int) {
				d := New()
				e := mustDefine(t, d, "Batch.D", rtti.Sig(nil, rtti.Word))
				defaulted := new(int)
				if _, err := e.Install(handler(voidProc("H", rtti.Word),
					func(any, []any) any { return nil }),
					WithGuard(Guard{Pred: codegen.ArgEq(0, 1)})); err != nil {
					t.Fatal(err)
				}
				if err := e.SetDefaultHandler(handler(voidProc("Def", rtti.Word),
					func(any, []any) any { *defaulted++; return nil })); err != nil {
					t.Fatal(err)
				}
				return e, defaulted
			}
			eb2, defB := mkDef(t)
			el2, defL := mkDef(t)
			out = eb2.RaiseBatch1(flat)
			for i := range flat {
				if _, err := el2.Raise(flat[i]); err != nil {
					t.Fatalf("loop raise: %v", err)
				}
			}
			if *defB != *defL || out.Defaulted != *defL {
				t.Fatalf("defaulted: batch counter %d outcome %d, loop %d", *defB, out.Defaulted, *defL)
			}

			// No handler fires and no default exists: the loop form errors
			// per frame; the batch counts the frames and reports the same
			// sentinel once.
			mkBare := func(t *testing.T) *Event {
				d := New()
				e := mustDefine(t, d, "Batch.N", rtti.Sig(nil, rtti.Word))
				if _, err := e.Install(handler(voidProc("H", rtti.Word),
					func(any, []any) any { return nil }),
					WithGuard(Guard{Pred: codegen.ArgEq(0, 1)})); err != nil {
					t.Fatal(err)
				}
				return e
			}
			eb3, el3 := mkBare(t), mkBare(t)
			out = eb3.RaiseBatch1(flat)
			misses := 0
			for i := range flat {
				if _, err := el3.Raise(flat[i]); errors.Is(err, ErrNoHandler) {
					misses++
				}
			}
			if out.NoHandler != misses {
				t.Fatalf("NoHandler = %d, loop saw %d", out.NoHandler, misses)
			}
			if misses > 0 && !errors.Is(out.Err(), ErrNoHandler) {
				t.Fatalf("batch err = %v, want ErrNoHandler", out.Err())
			}

			// Ambiguous: two result handlers, no fold.
			mkAmb := func(t *testing.T) *Event {
				d := New()
				e := mustDefine(t, d, "Batch.A", rtti.Sig(rtti.Word, rtti.Word))
				for id := 1; id <= 2; id++ {
					k := uint64(id)
					if _, err := e.Install(Handler{
						Proc: resultProc(fmt.Sprintf("A%d", id), rtti.Word, rtti.Word),
						Fn:   func(clo any, args []any) any { return k },
					}); err != nil {
						t.Fatal(err)
					}
				}
				return e
			}
			eb4, el4 := mkAmb(t), mkAmb(t)
			out = eb4.RaiseBatch1(flat)
			ambs := 0
			for i := range flat {
				if _, err := el4.Raise(flat[i]); errors.Is(err, ErrAmbiguousResult) {
					ambs++
				}
			}
			if out.Ambiguous != ambs || ambs != n {
				t.Fatalf("Ambiguous = %d, loop saw %d (n=%d)", out.Ambiguous, ambs, n)
			}
			if !errors.Is(out.Err(), ErrAmbiguousResult) {
				t.Fatalf("batch err = %v, want ErrAmbiguousResult", out.Err())
			}

			// Wrong width: a one-word event raised two words per frame
			// rejects every frame, as a loop of Raise2 calls would, and a
			// ragged tail is one more malformed frame. At the right width
			// the full rows dispatch and only the tail is rejected.
			if n >= 2 {
				d := New()
				fired := 0
				count := func(any, []any) any { fired++; return nil }
				e1 := mustDefine(t, d, "Batch.M1", rtti.Sig(nil, rtti.Word))
				e2 := mustDefine(t, d, "Batch.M2", rtti.Sig(nil, rtti.Word, rtti.Word))
				if _, err := e1.Install(handler(voidProc("H1", rtti.Word), count)); err != nil {
					t.Fatal(err)
				}
				if _, err := e2.Install(handler(voidProc("H2", rtti.Word, rtti.Word), count)); err != nil {
					t.Fatal(err)
				}
				out = e1.RaiseBatch2(flat)
				if out.Rejected != n/2+n%2 || out.Raised != 0 || fired != 0 {
					t.Fatalf("wrong width: %+v fired=%d, want Rejected=%d Raised=0", out, fired, n/2+n%2)
				}
				if !errors.Is(out.Err(), ErrBadArity) {
					t.Fatalf("batch err = %v, want ErrBadArity", out.Err())
				}
				out = e2.RaiseBatch2(flat)
				if out.Rejected != n%2 || out.Raised != n/2 || fired != n/2 {
					t.Fatalf("ragged tail: %+v fired=%d, want Rejected=%d Raised=%d", out, fired, n%2, n/2)
				}
			}
		})
	}
}

// TestRaiseBatchAritySpecialized checks the remaining specialized entry
// points (RaiseBatch0 and the multi-word flat layouts) against their loop
// twins.
func TestRaiseBatchAritySpecialized(t *testing.T) {
	// Arity 0 through RaiseBatch0 (no frames materialize at all).
	db, dl := New(), New()
	eb := mustDefine(t, db, "Batch.Z", rtti.Sig(nil))
	el := mustDefine(t, dl, "Batch.Z", rtti.Sig(nil))
	cb, cl := 0, 0
	if _, err := eb.Install(handler(voidProc("H"), func(any, []any) any { cb++; return nil })); err != nil {
		t.Fatal(err)
	}
	if _, err := el.Install(handler(voidProc("H"), func(any, []any) any { cl++; return nil })); err != nil {
		t.Fatal(err)
	}
	const n = 100
	out := eb.RaiseBatch0(n)
	for i := 0; i < n; i++ {
		if _, err := el.Raise0(); err != nil {
			t.Fatal(err)
		}
	}
	if cb != cl || out.Raised != n || out.Fired != int64(cl) {
		t.Fatalf("RaiseBatch0: batch fired %d (outcome %+v), loop fired %d", cb, out, cl)
	}

	// Arity 3 through the row-major flat layout.
	db3, dl3 := New(), New()
	sig := rtti.Sig(nil, rtti.Word, rtti.Word, rtti.Word)
	eb3 := mustDefine(t, db3, "Batch.W3", sig)
	el3 := mustDefine(t, dl3, "Batch.W3", sig)
	var sumB, sumL uint64
	mk := func(sum *uint64) Handler {
		return handler(voidProc("H", rtti.Word, rtti.Word, rtti.Word),
			func(clo any, args []any) any {
				*sum += args[0].(uint64) + 2*args[1].(uint64) + 3*args[2].(uint64)
				return nil
			})
	}
	if _, err := eb3.Install(mk(&sumB), WithGuard(Guard{Pred: codegen.ArgEq(2, 1)})); err != nil {
		t.Fatal(err)
	}
	if _, err := el3.Install(mk(&sumL), WithGuard(Guard{Pred: codegen.ArgEq(2, 1)})); err != nil {
		t.Fatal(err)
	}
	flat := make([]any, 0, 3*64)
	for i := 0; i < 64; i++ {
		flat = append(flat, uint64(i), uint64(i+1), uint64(i%2))
	}
	out = eb3.RaiseBatch3(flat)
	misses := 0
	for i := 0; i < 64; i++ {
		if _, err := el3.Raise3(flat[3*i], flat[3*i+1], flat[3*i+2]); err != nil {
			if !errors.Is(err, ErrNoHandler) {
				t.Fatal(err)
			}
			misses++ // guard fails on every other row; no default installed
		}
	}
	if sumB != sumL || out.Raised != 64 || out.NoHandler != misses {
		t.Fatalf("RaiseBatch3: batch sum %d, loop sum %d (misses %d), outcome %+v",
			sumB, sumL, misses, out)
	}

	// A ragged tail is rejected as one malformed frame; the full rows
	// still dispatch.
	out = eb3.RaiseBatch3(flat[:3*4+1])
	if out.Raised != 4 || out.Rejected != 1 {
		t.Fatalf("ragged tail: %+v, want Raised=4 Rejected=1", out)
	}
}

// TestRaiseBatchMidBatchUninstall arms a saboteur handler that uninstalls
// a victim binding from inside the dispatch of one mid-batch frame. The
// executing frame must still fire the victim (pre-raise plan snapshot),
// and every subsequent frame must dispatch on the swapped plan — exactly
// the loop form's visibility rule.
func TestRaiseBatchMidBatchUninstall(t *testing.T) {
	for _, cfg := range batchConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			run := func(batched bool) ([]int, Stats) {
				d := New(cfg.opts()...)
				e := mustDefine(t, d, "Batch.S", rtti.Sig(nil, rtti.Word))
				var log []int
				var victim *Binding
				_, err := e.Install(handler(voidProc("Saboteur", rtti.Word),
					func(clo any, args []any) any {
						log = append(log, 100)
						if victim != nil {
							if uerr := e.Uninstall(victim); uerr != nil {
								t.Errorf("mid-batch uninstall: %v", uerr)
							}
							victim = nil
						}
						return nil
					}), WithGuard(Guard{Pred: codegen.ArgEq(0, 7)}))
				if err != nil {
					t.Fatal(err)
				}
				victim, err = e.Install(handler(voidProc("Victim", rtti.Word),
					func(any, []any) any { log = append(log, 200); return nil }))
				if err != nil {
					t.Fatal(err)
				}
				if _, err = e.Install(handler(voidProc("Bystander", rtti.Word),
					func(any, []any) any { log = append(log, 300); return nil })); err != nil {
					t.Fatal(err)
				}
				flat := make([]any, 64)
				for i := range flat {
					w := uint64(i % 3)
					if i == 40 {
						w = 7 // the saboteur fires here and tears out the victim
					}
					flat[i] = w
				}
				if batched {
					out := e.RaiseBatch1(flat)
					if out.Raised != len(flat) {
						t.Fatalf("outcome %+v, want Raised=%d", out, len(flat))
					}
				} else {
					for i := range flat {
						if _, err := e.Raise(flat[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
				return log, e.Stats()
			}
			logB, statsB := run(true)
			logL, statsL := run(false)
			if !reflect.DeepEqual(logB, logL) {
				t.Fatalf("fired sequences diverge:\nbatch %v\nloop  %v", logB, logL)
			}
			if statsB.Raised != statsL.Raised || statsB.Fired != statsL.Fired {
				t.Fatalf("stats diverge: batch %+v loop %+v", statsB, statsL)
			}
		})
	}
}

// TestRaiseBatchFaultLedgerParity runs a batch over a dispatcher with an
// enforcing fault policy: a handler that panics on one argument value
// marches through its fault budget and is quarantined in the middle of
// the batch (a plan swap the batch executors must observe). The fired
// sequence, ledger record counts, and terminal quarantine state must
// match the loop form exactly.
func TestRaiseBatchFaultLedgerParity(t *testing.T) {
	run := func(batched bool) ([]int, int, fault.State) {
		d := New(WithFaultPolicy(fault.DefaultPolicy()))
		e := mustDefine(t, d, "Batch.F", rtti.Sig(nil, rtti.Word))
		var log []int
		bad, err := e.Install(handler(voidProc("Bad", rtti.Word),
			func(clo any, args []any) any {
				if args[0].(uint64) == 4 {
					panic("batch boom")
				}
				log = append(log, 1)
				return nil
			}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err = e.Install(handler(voidProc("Good", rtti.Word),
			func(any, []any) any { log = append(log, 2); return nil })); err != nil {
			t.Fatal(err)
		}
		flat := make([]any, 64)
		for i := range flat {
			flat[i] = uint64(i % 8) // arg 4 recurs: 8 panic frames offered
		}
		if batched {
			e.RaiseBatch1(flat)
		} else {
			for i := range flat {
				if _, rerr := e.Raise(flat[i]); rerr != nil {
					t.Fatalf("raise %d: %v", i, rerr)
				}
			}
		}
		panics := 0
		for _, r := range d.FaultLedger().Records() {
			if r.Kind == fault.KindPanic {
				panics++
			}
		}
		return log, panics, bad.FaultState()
	}
	logB, panicsB, stateB := run(true)
	logL, panicsL, stateL := run(false)
	if !reflect.DeepEqual(logB, logL) {
		t.Fatalf("fired sequences diverge:\nbatch %v\nloop  %v", logB, logL)
	}
	if panicsB != panicsL {
		t.Fatalf("fault ledgers diverge: batch %d panics, loop %d", panicsB, panicsL)
	}
	if stateB != stateL || stateB != fault.Quarantined {
		t.Fatalf("terminal states diverge: batch %v, loop %v (want Quarantined)", stateB, stateL)
	}
}

// TestRaiseBatchAdmissionLedger drives the asynchronous batch path into a
// deterministically saturated admission queue under each policy mode: a
// gate event occupies the single pool worker, so the target queue's
// disposition of a 10-frame batch is exact. The terminal ledger must be
// identical to a loop of RaiseAsync calls, and the BatchOutcome must
// agree with the errors the loop form surfaced.
func TestRaiseBatchAdmissionLedger(t *testing.T) {
	modes := map[string]admit.Policy{
		"shed":     {Mode: admit.Shed, Depth: 4},
		"shedOld":  {Mode: admit.ShedOldest, Depth: 4},
		"coalesce": {Mode: admit.Coalesce, Depth: 4},
		"block":    {Mode: admit.Block, Depth: 4, BlockTimeout: 5 * time.Millisecond},
	}
	const frames = 10
	type result struct {
		stats  admit.QueueStats
		raised int // nil returns: admitted or coalesced
		shed   int
	}
	for name, pol := range modes {
		pol := pol
		t.Run(name, func(t *testing.T) {
			run := func(batched bool) result {
				d := New(WithAdmission(AdmissionConfig{Workers: 1}))
				gatePol := admit.Policy{Mode: admit.Shed, Depth: 1}
				gate := mustDefine(t, d, "Batch.Gate", rtti.Sig(nil), AsAsync())
				gate.SetAdmission(&gatePol)
				started := make(chan struct{})
				release := make(chan struct{})
				if _, err := gate.Install(handler(voidProc("Gate"), func(any, []any) any {
					started <- struct{}{}
					<-release
					return nil
				})); err != nil {
					t.Fatal(err)
				}
				e := mustDefine(t, d, "Batch.Async", rtti.Sig(nil, rtti.Word), AsAsync())
				e.SetAdmission(&pol)
				if _, err := e.Install(handler(voidProc("H", rtti.Word),
					func(any, []any) any { return nil })); err != nil {
					t.Fatal(err)
				}
				if err := gate.RaiseAsync(); err != nil {
					t.Fatal(err)
				}
				<-started // the one worker is now parked; the queue is ours

				var res result
				if batched {
					out := e.RaiseBatch1(batchTestFlat(frames))
					res.raised, res.shed = out.Raised, out.Shed
					if got := out.Raised + out.Shed + out.Rejected; got != frames {
						t.Fatalf("dispositions sum to %d, want %d: %+v", got, frames, out)
					}
				} else {
					for i := 0; i < frames; i++ {
						err := e.RaiseAsync(uint64(i % 5))
						switch {
						case err == nil:
							res.raised++
						case errors.Is(err, admit.ErrOverload):
							res.shed++
						default:
							t.Fatalf("RaiseAsync: %v", err)
						}
					}
				}
				close(release)
				res.stats = waitDrained(t, e.AdmissionQueue(), 10*time.Second)
				waitDrained(t, gate.AdmissionQueue(), 10*time.Second)
				if res.stats.Submitted != frames {
					t.Fatalf("submitted = %d, want %d", res.stats.Submitted, frames)
				}
				if got := res.stats.Completed + res.stats.Shed + res.stats.Coalesced; got != res.stats.Submitted {
					t.Fatalf("ledger leak: %+v", res.stats)
				}
				return res
			}
			b := run(true)
			l := run(false)
			if b.stats.Completed != l.stats.Completed || b.stats.Shed != l.stats.Shed ||
				b.stats.Coalesced != l.stats.Coalesced {
				t.Fatalf("terminal ledgers diverge:\nbatch %+v\nloop  %+v", b.stats, l.stats)
			}
			// Raiser-visible dispositions must match between batch and loop:
			// a nil return is Raised, an overload error Shed.
			if b.raised != l.raised || b.shed != l.shed {
				t.Fatalf("raiser-visible dispositions diverge: batch raised %d shed %d, loop raised %d shed %d",
					b.raised, b.shed, l.raised, l.shed)
			}
			// Where sheds are raiser-visible (Shed, Block, Coalesce), the
			// BatchOutcome must agree with the queue's ledger: every raised
			// frame completed or coalesced into a pending raise. Under
			// ShedOldest the victims are shed from the queue head after
			// admission, so the raiser sees every submit succeed.
			if pol.Mode == admit.ShedOldest {
				if b.shed != 0 || int64(b.raised) != b.stats.Submitted {
					t.Fatalf("ShedOldest outcome (raised %d shed %d) not raiser-invisible: %+v",
						b.raised, b.shed, b.stats)
				}
			} else if int64(b.raised) != b.stats.Completed+b.stats.Coalesced || int64(b.shed) != b.stats.Shed {
				t.Fatalf("BatchOutcome (raised %d shed %d) disagrees with ledger %+v",
					b.raised, b.shed, b.stats)
			}
		})
	}
}

// TestAsyncRaiseBatchIsRaiseAsyncLoop: on a metered simulator dispatcher an
// unqueued asynchronous event's batch spawns one thread of control per
// frame, as a loop of RaiseAsync does — the same kernel charge, with the
// handler run on the same arguments in the same order.
func TestAsyncRaiseBatchIsRaiseAsyncLoop(t *testing.T) {
	run := func(batched bool) (vtime.Duration, []uint64) {
		var clock vtime.Clock
		cpu := vtime.NewCPU(&clock, vtime.AlphaModel())
		sim := vtime.NewSimulator(&clock)
		d := New(WithCPU(cpu), WithSimulator(sim))
		e := mustDefine(t, d, "Batch.AsyncLoop", rtti.Sig(nil, rtti.Word), AsAsync())
		var got []uint64
		if _, err := e.Install(handler(voidProc("H", rtti.Word), func(_ any, args []any) any {
			got = append(got, args[0].(uint64))
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		flat := []any{uint64(3), uint64(1), uint64(4), uint64(1)}
		if batched {
			if out := e.RaiseBatch1(flat); out.Raised != len(flat) {
				t.Fatalf("outcome %+v, want Raised=%d", out, len(flat))
			}
		} else {
			for _, a := range flat {
				if _, err := e.Raise1(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		sim.Run(0)
		return cpu.Total(vtime.AccountKernel), got
	}
	kernB, gotB := run(true)
	kernL, gotL := run(false)
	if kernB != kernL {
		t.Fatalf("kernel charge: batch %.1fus, loop %.1fus", vtime.InMicros(kernB), vtime.InMicros(kernL))
	}
	if !reflect.DeepEqual(gotB, gotL) || len(gotL) != 4 {
		t.Fatalf("handler arguments: batch %v, loop %v", gotB, gotL)
	}
}

// TestRaiseBatchZeroAlloc asserts the one batch path performs zero heap
// allocations per frame at batch >= 8 under the three standing CI
// invariants — tracing off, fault policy on, and admission enabled with no
// policy on the event — and on its loops of single raises: a metered
// dispatcher and a traced plan whose draws miss. The flat argument vector
// is built once outside the measured region, as a steady-state producer
// would hold it.
func TestRaiseBatchZeroAlloc(t *testing.T) {
	const n = 64
	flat := make([]any, n)
	for i := range flat {
		flat[i] = uint64(i % 5) // small words box allocation-free
	}
	cases := []struct {
		name string
		mk   func() *Dispatcher
	}{
		{"tracingOff", func() *Dispatcher { return New() }},
		{"faultPolicyOn", func() *Dispatcher { return New(WithFaultPolicy(fault.DefaultPolicy())) }},
		{"admissionNoPolicy", func() *Dispatcher {
			return New(WithAdmission(AdmissionConfig{Workers: 1}))
		}},
		{"metered", func() *Dispatcher { return New(WithCPU(vtime.NewCPU(&vtime.Clock{}, vtime.AlphaModel()))) }},
		{"tracedUnsampled", func() *Dispatcher {
			return New(WithTracer(trace.New(trace.Config{Capacity: 64, Sample: 1 << 30})))
		}},
	}
	var cell atomic.Uint64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.mk()
			e := mustDefine(t, d, "Batch.ZA", fastSig(1))
			for i := 0; i < 5; i++ {
				if _, err := e.Install(fastHandler(1),
					WithGuard(Guard{Pred: codegen.GlobalEq(&cell, 0)})); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(200, func() {
				out := e.RaiseBatch1(flat)
				if out.Raised != n {
					t.Fatalf("outcome %+v", out)
				}
			}); allocs != 0 {
				t.Errorf("%s: %v allocs per %d-frame batch, want 0", tc.name, allocs, n)
			}
		})
	}
}
