package dispatch

import (
	"errors"
	"fmt"

	"spin/internal/admit"
	"spin/internal/codegen"
	"spin/internal/stripe"
)

// Batched raise ingress: the vectorized entry points that pay the
// per-raise fixed costs once per batch instead of once per frame. There is
// one batch path: the frames arrive flat, row-major in one slice
// (RaiseBatch0..RaiseBatch3), the plan's two fast loops run them
// (codegen.Plan.ExecuteBatch), and every other batch is a loop of single
// raises (an asynchronous event's, of RaiseAsync). No producer in the tree
// batches: RX trains and accept backlogs hold one frame in the measured
// workloads, so the netstack and httpd raise per frame. A batch is
// observably identical to a loop of single raises — same fire counts and
// order, same results fold, same counter totals, same admission ledger —
// including under mid-batch plan churn: the batch executors stop at a plan
// swap and the loop here reloads and continues, so an uninstall between
// frames is visible to the next frame exactly as it is to the next
// iteration of a raise loop. See DESIGN.md decision 16.

// BatchOutcome reports how one batch's frames were disposed. Every frame
// ends in exactly one of Raised (dispatched to the plan), Rejected (failed
// argument validation) or Shed (async admission), so the counts always sum
// to the number of frames offered.
type BatchOutcome struct {
	// Raised counts frames dispatched to the plan (for async batches:
	// frames whose RaiseAsync returned nil — admitted, coalesced into a
	// pending raise, or spawned).
	Raised int
	// Fired counts handler invocations across all dispatched frames,
	// excluding default-handler firings.
	Fired int64
	// Defaulted counts frames handled by the default handler; NoHandler
	// counts frames on which nothing fired (ErrNoHandler in loop form);
	// Ambiguous counts frames with multiple unmerged results.
	Defaulted int
	NoHandler int
	Ambiguous int
	// Rejected counts frames that failed argument validation (arity, and
	// dynamic types under purity checking) or async-raise legality.
	Rejected int
	// Shed counts async frames the admission policy shed.
	Shed int
	// Result is the last dispatched frame's merged result (synchronous
	// batches on result events).
	Result any
}

// fold accumulates one single-raise outcome (the loop-of-raises path).
func (o *BatchOutcome) fold(u codegen.Outcome) {
	var b codegen.BatchOutcome
	b.Add(u)
	o.foldBatch(b, 1)
}

// foldBatch accumulates one executor call's outcome covering n frames.
func (o *BatchOutcome) foldBatch(b codegen.BatchOutcome, n int) {
	o.Raised += n
	o.Fired += b.Fired
	o.Defaulted += b.Defaulted
	o.NoHandler += b.NoHandler
	o.Ambiguous += b.Ambiguous
	o.Result = b.Result
}

// Err summarizes the batch under the single-raise error contract, built
// lazily so the all-success path never constructs an error. Severity
// order: rejection (the raise never dispatched), overload shed, no
// handler, ambiguous result. errors.Is works against the usual sentinels.
func (o BatchOutcome) Err() error {
	n := o.Raised + o.Rejected + o.Shed
	switch {
	case o.Rejected > 0:
		return fmt.Errorf("%w: %d of %d frames rejected", ErrBadArity, o.Rejected, n)
	case o.Shed > 0:
		return fmt.Errorf("%w: %d of %d frames shed", admit.ErrOverload, o.Shed, n)
	case o.NoHandler > 0:
		return fmt.Errorf("%w: %d of %d frames unhandled", ErrNoHandler, o.NoHandler, n)
	case o.Ambiguous > 0:
		return fmt.Errorf("%w: %d of %d frames ambiguous", ErrAmbiguousResult, o.Ambiguous, n)
	}
	return nil
}

// raiseOne is one frame of a loop of single raises: exactly Raise's path
// (raiseOut), folded into out.
func (e *Event) raiseOne(out *BatchOutcome, plan *codegen.Plan, args []any) {
	u, err := e.raiseOut(plan, args)
	if err != nil {
		out.Rejected++
		return
	}
	out.fold(u)
}

// executeBatch makes one batch-executor call and accounts the m frames it
// processed, returning m. The stripe's cell counts all n frames before the
// call, as raiseOut counts its raise, so the executor's excess add lands
// behind it; when the plan was superseded mid-batch it takes back the n − m
// frames the caller's next iteration re-dispatches, and counts again, on
// the reloaded plan. Both adds are even, so a raise that owns the cell's
// frame keeps its busy bit. The count is the journal's raise-sampling draw,
// as in raiseOut: moving the cell's count from v to v+m wins one sample per
// multiple of the sampling interval in (v, v+m] — what a loop of m raises
// would have won — each recorded with this call's mean fired count.
func (e *Event) executeBatch(out *BatchOutcome, plan *codegen.Plan, flat []any, width, n, idx int) int {
	c := &e.cells[idx]
	raised := c.count(int64(n))
	b, m := plan.ExecuteBatch(e.env, flat, width, n, idx, &e.plan)
	if m < n {
		c.count(int64(m - n))
		raised -= int64(n - m)
	}
	out.foldBatch(b, m)
	if jr := e.d.jrnl; jr != nil {
		for hits := jr.SampleCountN(uint64(raised), uint64(m)); hits > 0; hits-- {
			jr.SampleHit(e.name, int(b.Fired/int64(m)))
		}
	}
	return m
}

// RaiseBatch0 raises a no-parameter event n times through the batched
// ingress tier without allocating.
func (e *Event) RaiseBatch0(n int) BatchOutcome { return e.raiseBatchFlat(nil, 0, n) }

// RaiseBatch1 raises the event once per element of flat (one argument per
// frame); a steady-state batch performs no heap allocation. Semantics are
// identical to a loop of Raise1 calls.
func (e *Event) RaiseBatch1(flat []any) BatchOutcome { return e.raiseBatchFlat(flat, 1, len(flat)) }

// RaiseBatch2 raises the event with two arguments per frame, laid out
// row-major in flat: frame i is flat[2i], flat[2i+1].
func (e *Event) RaiseBatch2(flat []any) BatchOutcome { return e.raiseBatchFlat(flat, 2, len(flat)/2) }

// RaiseBatch3 raises the event with three arguments per frame, row-major —
// the widest flat entry point; a wider event's batch is a loop of raises.
func (e *Event) RaiseBatch3(flat []any) BatchOutcome { return e.raiseBatchFlat(flat, 3, len(flat)/3) }

// raiseBatchFlat is the one batch path: n width-sized frames, row-major in
// flat. Runs of frames go to the plan's batch executor (executeBatch),
// reloading and continuing on the new plan whenever it reports it was
// superseded mid-batch. Every frame is a single raise (raiseOne) on a
// metered dispatcher (each raise metered and accounted on its own), under
// purity checking (each raise behind its own monitor barrier), and when
// width is not the event's arity (each frame rejected). An asynchronous
// event's batch is a loop of RaiseAsync. flat is borrowed: it is never
// retained past the call or written, so the caller may reuse it at once —
// the batch copies flat once where a single raise would copy its frame
// (copyFrame), and an asynchronous event's, whose raises all outlive the
// call, always. A ragged tail (len(flat) not n*width) is rejected as one
// malformed frame.
func (e *Event) raiseBatchFlat(flat []any, width, n int) BatchOutcome {
	var out BatchOutcome
	if len(flat) != n*width {
		out.Rejected++
	}
	if n <= 0 {
		return out
	}
	if e.async {
		own := append([]any(nil), flat[:n*width]...)
		for i := 0; i < n; i++ {
			switch err := e.raiseAsync(own[i*width : (i+1)*width : (i+1)*width]); {
			case err == nil:
				out.Raised++
			case errors.Is(err, admit.ErrOverload):
				out.Shed++
			default:
				out.Rejected++
			}
		}
		return out
	}
	single := e.d.purity || e.d.cpu != nil || width != e.sig.Arity()
	idx := stripe.Index()
	owned := false
	for done := 0; done < n; {
		plan := e.plan.Load()
		if !owned && copyFrame(plan, false) {
			flat, owned = append([]any(nil), flat[:n*width]...), true
		}
		if !single {
			done += e.executeBatch(&out, plan, flat[done*width:], width, n-done, idx)
			continue
		}
		e.raiseOne(&out, plan, flat[done*width:(done+1)*width:(done+1)*width])
		done++
	}
	return out
}
