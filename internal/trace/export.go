package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// chromeEvent is one record in the Chrome trace_event JSON format
// (chrome://tracing, Perfetto). Complete spans use ph "X" with ts/dur in
// fractional microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

// spanName renders the span's display name for exporters.
func spanName(sp Span) string {
	switch sp.Kind {
	case KindRaiseBegin:
		return sp.Event + " raise"
	case KindGuard:
		outcome := "fail"
		if sp.Pass {
			outcome = "pass"
		}
		name := sp.Name
		if name == "" {
			if sp.Step < 0 {
				name = "<guard-index>"
			} else {
				name = fmt.Sprintf("step %d", sp.Step)
			}
		}
		return fmt.Sprintf("guard %s [%s]", name, outcome)
	case KindHandler:
		name := sp.Name
		if name == "" {
			name = fmt.Sprintf("step %d", sp.Step)
		}
		return fmt.Sprintf("%s (%s)", name, sp.Mode)
	case KindMerge:
		return fmt.Sprintf("merge #%d", sp.Step)
	case KindRaiseEnd:
		return sp.Event + " done"
	case KindReject:
		return fmt.Sprintf("%s rejected [%s]", sp.Name, RejectReason(sp.Detail))
	case KindFault:
		return fmt.Sprintf("%s faulted", sp.Name)
	case KindQuarantine:
		return fmt.Sprintf("%s quarantined [gen %d]", sp.Name, sp.Detail)
	case KindProbation:
		if sp.Pass {
			return fmt.Sprintf("%s restored", sp.Name)
		}
		return fmt.Sprintf("%s on probation", sp.Name)
	case KindShed:
		return fmt.Sprintf("%s shed [depth %d]", sp.Event, sp.Detail>>8)
	case KindDegrade:
		return fmt.Sprintf("degrade %d -> %d [%s]", sp.Detail>>8&0xFF, sp.Detail&0xFF, sp.Name)
	case KindBreaker:
		return fmt.Sprintf("breaker %d -> %d [%s]", sp.Detail>>8&0xFF, sp.Detail&0xFF, sp.Name)
	}
	return sp.Kind.String()
}

// ExportChrome writes the tracer's current spans as Chrome trace_event
// JSON, loadable in chrome://tracing or ui.perfetto.dev. Each raise maps
// to one tid so its guard → handler → merge structure reads as one track.
func (t *Tracer) ExportChrome(w io.Writer) error {
	return exportChrome(w, t.Snapshot())
}

func exportChrome(w io.Writer, spans []Span) error {
	file := chromeFile{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayUnit: "ns"}
	for _, sp := range spans {
		ev := chromeEvent{
			Name:  spanName(sp),
			Cat:   sp.Kind.String(),
			Phase: "X",
			TS:    float64(sp.Start) / 1e3,
			Dur:   float64(sp.Cost) / 1e3,
			PID:   1,
			TID:   sp.Raise,
			Args:  map[string]any{"seq": sp.Seq},
		}
		switch sp.Kind {
		case KindGuard:
			ev.Args["step"] = sp.Step
			ev.Args["guard"] = sp.Guard
			ev.Args["pass"] = sp.Pass
			ev.Args["inline"] = sp.Inline
		case KindHandler:
			ev.Args["step"] = sp.Step
			ev.Args["mode"] = sp.Mode.String()
			ev.Args["completed"] = sp.Pass
		case KindRaiseBegin:
			ev.Args["event"] = sp.Event
			ev.Args["arg0"] = sp.Detail
		case KindRaiseEnd:
			ev.Args["fired"] = sp.Detail
			ev.Args["ambiguous"] = sp.Ambiguous
			ev.Args["default"] = sp.UsedDefault
		case KindReject:
			ev.Args["reason"] = RejectReason(sp.Detail).String()
			ev.Args["event"] = sp.Event
		case KindFault:
			ev.Args["class"] = sp.Detail
			ev.Args["event"] = sp.Event
		case KindQuarantine:
			ev.Args["generation"] = sp.Detail
			ev.Args["event"] = sp.Event
		case KindProbation:
			ev.Args["restored"] = sp.Pass
			ev.Args["event"] = sp.Event
		case KindShed:
			ev.Args["depth"] = sp.Detail >> 8
			ev.Args["mode"] = sp.Detail & 0xFF
			ev.Args["event"] = sp.Event
		case KindDegrade:
			ev.Args["from"] = sp.Detail >> 8 & 0xFF
			ev.Args["to"] = sp.Detail & 0xFF
			ev.Args["level"] = sp.Name
			ev.Args["escalation"] = sp.Pass
		case KindBreaker:
			ev.Args["from"] = sp.Detail >> 8 & 0xFF
			ev.Args["to"] = sp.Detail & 0xFF
			ev.Args["peer"] = sp.Name
			ev.Args["trip"] = sp.Pass
		}
		file.TraceEvents = append(file.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}

// ExportText writes a human-readable rendering of the tracer's current
// spans, grouped by raise in raise order, one indented line per span.
func (t *Tracer) ExportText(w io.Writer) error {
	spans := t.Snapshot()

	// Group by raise, keeping first-seen raise order; control-plane spans
	// (raise 0) print first.
	order := make([]uint64, 0, 16)
	byRaise := make(map[uint64][]Span)
	for _, sp := range spans {
		if _, ok := byRaise[sp.Raise]; !ok {
			order = append(order, sp.Raise)
		}
		byRaise[sp.Raise] = append(byRaise[sp.Raise], sp)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	var sb strings.Builder
	for _, raise := range order {
		group := byRaise[raise]
		if raise == 0 {
			sb.WriteString("control plane:\n")
		} else {
			event := group[0].Event
			fmt.Fprintf(&sb, "raise #%d %s:\n", raise, event)
		}
		for _, sp := range group {
			fmt.Fprintf(&sb, "  %-12s %-40s start=%-12v cost=%v\n",
				sp.Kind, spanName(sp), sp.Start, sp.Cost)
		}
	}
	if dropped := t.Dropped(); dropped > 0 {
		fmt.Fprintf(&sb, "(%d older spans overwritten by ring wrap)\n", dropped)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
