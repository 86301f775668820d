package dispatch

import "spin/internal/codegen"

// RaiseReport is the structured outcome of one raise, for callers that
// need more than the (any, error) contract — the remote-raise receiver
// acks the sender with the handler count and the ambiguity/no-handler
// distinction instead of collapsing them into an error it would then have
// to re-parse.
type RaiseReport struct {
	// Fired counts handlers that ran, excluding the default handler.
	Fired int
	// UsedDefault is set when no handler fired and the default supplied
	// the result.
	UsedDefault bool
	// Ambiguous is set when multiple handlers produced results with no
	// result handler to merge them; the effects happened, the result is
	// unusable.
	Ambiguous bool
	// Async is set when the event is asynchronous: the raise was handed
	// off and Fired is necessarily zero (handlers run later, on their own
	// thread of control).
	Async bool
	// Result is the merged result (meaningful only for synchronous raises
	// with Fired > 0 or UsedDefault).
	Result any
}

// RaiseReport raises the event like Raise but returns the outcome
// structurally. A raise that fires no handler and has no default is NOT
// an error here — it returns a zero report — so a remote receiver can
// distinguish "dispatched, nobody listening" from a failed dispatch.
// Errors are reserved for argument validation and purity rejections
// (ErrGuardMutatedArgs), which return a zero report.
func (e *Event) RaiseReport(args ...any) (RaiseReport, error) {
	if e.async {
		err := e.RaiseAsync(args...)
		return RaiseReport{Async: true}, err
	}
	out, err := e.raiseOut(e.borrow(args))
	if err != nil {
		return RaiseReport{}, err
	}
	return reportFromOutcome(out), nil
}

func reportFromOutcome(out codegen.Outcome) RaiseReport {
	return RaiseReport{
		Fired:       out.Fired,
		UsedDefault: out.UsedDefault,
		Ambiguous:   out.Ambiguous,
		Result:      out.Result,
	}
}
