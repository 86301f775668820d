package dispatch

import (
	"fmt"
	"sync"

	"spin/internal/admit"
	"spin/internal/codegen"
	"spin/internal/stripe"
	"spin/internal/vtime"
)

// Batched raise ingress: the vectorized entry points high-rate producers
// (the netstack's RX packet trains, the httpd's accept bursts) use to pay
// the per-raise fixed costs once per batch instead of once per frame. A
// batch is observably identical to a loop of single raises — same fire
// counts and order, same results fold, same counter totals, same admission
// ledger — including under mid-batch plan churn: the batch executors stop
// at a plan swap and the loop here reloads and continues, so an uninstall
// between frames is visible to the next frame exactly as it is to the next
// iteration of a raise loop. See DESIGN.md decision 16.

// ArgFrame is one raise's argument vector within a batch.
type ArgFrame = codegen.ArgFrame

// batchChunk is the number of frame headers the pooled chunks behind the
// arity-specialized RaiseBatch0..RaiseBatch3 entry points carry; larger
// batches are processed in chunks of this size over one pooled buffer.
const batchChunk = 64

// frameChunkPool recycles frame-header chunks for the arity-specialized
// batch entry points. The headers must live on the heap — they pass
// through the executor's function-pointer call, which defeats escape
// analysis — but pooling makes the steady state allocation free. Only the
// headers are pooled; the argument words stay in the caller's flat slice.
var frameChunkPool = sync.Pool{
	New: func() any {
		b := make([]ArgFrame, batchChunk)
		return &b
	},
}

// BatchOutcome reports how one RaiseBatch's frames were disposed. Every
// frame ends in exactly one of Raised (dispatched to the plan), Rejected
// (failed argument validation), Shed, or Coalesced (async admission), so
// the counts always sum to the number of frames offered.
type BatchOutcome struct {
	// Raised counts frames dispatched to the plan (for async batches:
	// admitted to the queue or handed to the spawner).
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
	// Shed and Coalesced count async frames the admission policy shed or
	// merged into a pending raise.
	Shed      int
	Coalesced int
	// Result is the last dispatched frame's merged result (synchronous
	// batches on result events).
	Result any
}

// fold accumulates one single-raise outcome (the per-frame fallback path).
func (o *BatchOutcome) fold(u codegen.Outcome) {
	o.Raised++
	o.Fired += int64(u.Fired)
	switch {
	case u.UsedDefault:
		o.Defaulted++
	case u.Fired == 0:
		o.NoHandler++
	}
	if u.Ambiguous {
		o.Ambiguous++
	}
	o.Result = u.Result
}

// foldBatch accumulates one executor call's outcome covering n frames.
func (o *BatchOutcome) foldBatch(b codegen.BatchOutcome, n int) {
	if n == 0 {
		return
	}
	o.Raised += n
	o.Fired += b.Fired
	o.Defaulted += b.Defaulted
	o.NoHandler += b.NoHandler
	o.Ambiguous += b.Ambiguous
	o.Result = b.Result
}

// Merge folds another outcome — a later chunk of the same logical batch —
// into this one.
func (o *BatchOutcome) Merge(p BatchOutcome) {
	o.Fired += p.Fired
	o.Defaulted += p.Defaulted
	o.NoHandler += p.NoHandler
	o.Ambiguous += p.Ambiguous
	o.Rejected += p.Rejected
	o.Shed += p.Shed
	o.Coalesced += p.Coalesced
	if p.Raised > 0 {
		o.Result = p.Result
	}
	o.Raised += p.Raised
}

// Err summarizes the batch under the single-raise error contract, built
// lazily so the all-success path never constructs an error. Severity
// order: rejection (the raise never dispatched), overload shed, no
// handler, ambiguous result. errors.Is works against the usual sentinels.
func (o BatchOutcome) Err() error {
	n := o.Raised + o.Rejected + o.Shed + o.Coalesced
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

// RaiseBatch announces the event once per frame through the vectorized
// ingress tier: the plan is loaded once, one stripe shard index and (for
// traced plans) one sampling decision serve the whole batch, and the
// specialized executors run the frame loop inside the stenciled body.
// Semantics are those of a loop of Raise calls — same handlers in the same
// order per frame, same counter totals, and plan churn between frames
// (uninstall, quarantine, trace toggle) is honored mid-batch via the
// atomic plan swap.
//
// The batch does not copy frames; as with Raise(args...), a plan with
// asynchronous or ephemeral handlers may retain each frame past the call.
// Metered dispatchers and purity-checking dispatchers take the per-frame
// fallback so virtual-time charges and monitor semantics stay
// byte-identical to the loop form.
func (e *Event) RaiseBatch(frames []ArgFrame) BatchOutcome {
	var out BatchOutcome
	if len(frames) == 0 {
		return out
	}
	if e.async {
		return e.raiseBatchAsync(frames)
	}
	if e.d.purity || e.d.cpu != nil {
		return e.raiseBatchLoop(frames)
	}
	arity := e.sig.Arity()
	for i := range frames {
		if len(frames[i]) != arity {
			// Mixed-arity batch: the loop form rejects exactly the bad
			// frames and dispatches the rest; fall back to it.
			return e.raiseBatchLoop(frames)
		}
	}
	e.raiseBatchFrames(&out, frames)
	return out
}

// raiseBatchFrames is the vectorized synchronous core: one stripe index
// for the batch, then the plan's batch executor, reloading and continuing
// on the new plan whenever the executor reports it was superseded
// mid-batch. Argument validity (arity) must be pre-checked by the caller.
func (e *Event) raiseBatchFrames(out *BatchOutcome, frames []ArgFrame) {
	idx := stripe.Index()
	for done := 0; done < len(frames); {
		done += e.executeBatch(out, e.plan.Load(), frames[done:], idx)
	}
}

// executeBatch makes one batch-executor call and accounts the m frames it
// processed, returning m. The raised total is counted after the fact:
// frames beyond m re-dispatch on the reloaded plan in the caller's next
// iteration, so counting m (not len(frames)) keeps the total exact. The
// same add is the journal's raise-sampling draw, as in raiseOut: moving the
// shard value from v to v+m wins one sample per multiple of the sampling
// interval in (v, v+m] — what a loop of m raises would have won — each
// recorded with this call's mean fired count.
func (e *Event) executeBatch(out *BatchOutcome, plan *codegen.Plan, frames []ArgFrame, idx int) int {
	b, m := plan.ExecuteBatch(e.env, frames, idx, &e.plan)
	raised := e.raised.AddAtN(idx, int64(m))
	out.foldBatch(b, m)
	if jr := e.d.jrnl; jr != nil {
		for hits := jr.SampleCountN(uint64(raised), uint64(m)); hits > 0; hits-- {
			jr.SampleHit(e.name, int(b.Fired/int64(m)))
		}
	}
	return m
}

// raiseBatchLoop dispatches frames one at a time through the exact
// single-raise path: the fallback for metered dispatchers (byte-identical
// virtual-time charge sequences), purity checking (per-frame monitor
// barriers), and mixed-arity batches (per-frame rejection).
func (e *Event) raiseBatchLoop(frames []ArgFrame) BatchOutcome {
	var out BatchOutcome
	for i := range frames {
		u, err := e.raiseOut(e.plan.Load(), frames[i])
		if err != nil {
			out.Rejected++
			continue
		}
		out.fold(u)
	}
	return out
}

// raiseBatchAsync is RaiseBatch for asynchronous events. Event-level
// legality (result-needs-default, by-reference arguments) is hoisted once
// per batch; invalid frames are rejected per frame as the loop form would
// reject them. On a queued event the whole batch is admitted in a single
// ledger transaction (admit.Queue.SubmitBatch); unqueued events spawn one
// thread of control that drains the batch in order, preserving per-event
// FIFO — and amortizing the spawn, which is the point of batching the
// async path (the loop form spawns per raise; see DESIGN.md decision 16).
func (e *Event) raiseBatchAsync(frames []ArgFrame) BatchOutcome {
	var out BatchOutcome
	n := len(frames)
	if (e.sig.HasResult() && e.defaultBinding() == nil) || e.sig.HasByRef() {
		out.Rejected = n
		return out
	}
	work := frames
	arity := e.sig.Arity()
	bad := 0
	for i := range frames {
		if e.checkArgs(frames[i]) != nil {
			bad++
		}
	}
	if bad > 0 {
		out.Rejected = bad
		work = make([]ArgFrame, 0, n-bad)
		for i := range frames {
			if e.checkArgs(frames[i]) == nil {
				work = append(work, frames[i])
			}
		}
		if len(work) == 0 {
			return out
		}
	}
	if q := e.plan.Load().AdmitQueue(); q != nil && e.d.sim == nil {
		e.d.cpu.Begin(vtime.AccountEvents)
		st := e.d.submitRaiseBatch(q, e, work)
		e.d.cpu.End()
		out.Raised = st.Admitted
		out.Shed = st.Shed
		out.Coalesced = st.Coalesced
		return out
	}
	e.d.cpu.Begin(vtime.AccountEvents)
	e.d.spawn(arity, func() {
		for i := range work {
			_, _ = e.raiseSync(work[i])
		}
	})
	e.d.cpu.End()
	out.Raised = len(work)
	return out
}

// RaiseBatch0 raises a no-parameter event n times through the batched
// ingress tier without allocating.
func (e *Event) RaiseBatch0(n int) BatchOutcome {
	var out BatchOutcome
	if n <= 0 {
		return out
	}
	if e.async || e.d.purity || e.d.cpu != nil || e.sig.Arity() != 0 {
		return e.RaiseBatch(make([]ArgFrame, n))
	}
	bp := frameChunkPool.Get().(*[]ArgFrame)
	frames := *bp
	for j := range frames {
		frames[j] = nil
	}
	for off := 0; off < n; off += batchChunk {
		k := n - off
		if k > batchChunk {
			k = batchChunk
		}
		e.raiseBatchFrames(&out, frames[:k])
	}
	frameChunkPool.Put(bp)
	return out
}

// RaiseBatch1 raises the event once per element of flat (one argument per
// frame) through pooled frame headers; a steady-state batch performs no
// heap allocation. Semantics are identical to a loop of Raise1 calls.
func (e *Event) RaiseBatch1(flat []any) BatchOutcome { return e.raiseBatchFlat(flat, 1) }

// RaiseBatch2 raises the event with two arguments per frame, laid out
// row-major in flat: frame i is flat[2i], flat[2i+1].
func (e *Event) RaiseBatch2(flat []any) BatchOutcome { return e.raiseBatchFlat(flat, 2) }

// RaiseBatch3 raises the event with three arguments per frame, row-major —
// the widest flat entry point; wider events batch through RaiseBatch.
func (e *Event) RaiseBatch3(flat []any) BatchOutcome { return e.raiseBatchFlat(flat, 3) }

// raiseBatchFlat carves width-sized frames out of flat (row-major) and
// dispatches them in pooled chunks. Frames are zero-copy subslices while
// the published plan cannot retain them; if a plan with asynchronous or
// ephemeral handlers is (or becomes) published, the remaining frames get
// private copies, exactly as raisePooled decides per raise. A ragged tail
// (len(flat) not a multiple of width) is rejected as one malformed frame.
func (e *Event) raiseBatchFlat(flat []any, width int) BatchOutcome {
	var out BatchOutcome
	n := len(flat) / width
	if len(flat)%width != 0 {
		out.Rejected++
	}
	if n == 0 {
		return out
	}
	if e.async || e.d.purity || e.d.cpu != nil || e.sig.Arity() != width {
		frames := make([]ArgFrame, n)
		for i := range frames {
			frames[i] = flat[i*width : (i+1)*width : (i+1)*width]
		}
		sub := e.RaiseBatch(frames)
		out.Merge(sub)
		return out
	}
	bp := frameChunkPool.Get().(*[]ArgFrame)
	frames := *bp
	done := 0
	for done < n {
		plan := e.plan.Load()
		if plan.RetainsArgs() {
			// A spawned handler may hold each frame past the raise: give
			// the remaining frames private copies through the single-raise
			// path (retaining plans are off the zero-alloc fast path
			// anyway, exactly as in raisePooled).
			for ; done < n; done++ {
				private := make([]any, width)
				copy(private, flat[done*width:(done+1)*width])
				u, err := e.raiseOut(e.plan.Load(), private)
				if err != nil {
					out.Rejected++
					continue
				}
				out.fold(u)
			}
			break
		}
		k := n - done
		if k > batchChunk {
			k = batchChunk
		}
		for j := 0; j < k; j++ {
			at := (done + j) * width
			frames[j] = flat[at : at+width : at+width]
		}
		done += e.executeBatch(&out, plan, frames[:k], stripe.Index())
	}
	for j := range frames {
		frames[j] = nil
	}
	frameChunkPool.Put(bp)
	return out
}
