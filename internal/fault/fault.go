// Package fault is the dispatcher's fault-isolation and extension-lifecycle
// subsystem. The paper treats extensions as untrusted peers of the kernel:
// EPHEMERAL handlers "may be safely terminated at any point" (§2.4) and a
// misbehaving handler can be dynamically uninstalled — but the paper leaves
// the policy of *when* to the event's authority. This package supplies that
// policy layer: every handler misbehavior (panic, deadline overrun) becomes
// a Record in a Ledger; a per-binding fault budget turns repeated
// misbehavior into an Action (quarantine the binding); probation re-admits
// quarantined bindings with a tightened budget and exponential backoff, and
// re-quarantines them on relapse.
//
// The ledger is deliberately mechanism-free: it never touches the
// dispatcher. Keys are opaque (the dispatcher uses *Binding pointers), and
// an Action only reports what the policy decided; the dispatcher carries it
// out by recompiling the event's dispatch plan without the quarantined
// binding and publishing it through the same atomic plan swap
// installations use — so the no-fault fast path carries no fault-handling
// instructions at all (see DESIGN.md decision 12).
package fault

import (
	"fmt"
	"sync"
	"time"

	"spin/internal/vtime"
)

// Kind discriminates fault records.
type Kind uint8

const (
	// KindPanic is a recovered panic in a handler or guard.
	KindPanic Kind = iota + 1
	// KindDeadline is a watchdog deadline overrun (EPHEMERAL or async
	// handlers with a wall-clock deadline).
	KindDeadline
	_ // 3 is retired; trace spans carry the values of the kinds below
	// KindBadResult is a handler returning a malformed result (currently
	// raised only by the injection harness).
	KindBadResult
	// KindCompare is an observational record: the purity monitor recovered
	// a panic while comparing guard argument snapshots. It never counts
	// against a budget — it documents what the old silent recover() threw
	// away.
	KindCompare
	// KindRemote is an observational record from the remote-raise layer: a
	// peer circuit breaker tripped (deadline exhaustion, connection loss,
	// or heartbeat-declared partition). It charges the peer's failure
	// domain in the ledger without counting against any local handler's
	// budget.
	KindRemote
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDeadline:
		return "deadline"
	case KindBadResult:
		return "bad-result"
	case KindCompare:
		return "compare"
	case KindRemote:
		return "remote"
	}
	return "fault(?)"
}

// Origin locates a fault within dispatch.
type Origin uint8

const (
	// OriginHandler is a fault inside a handler body.
	OriginHandler Origin = iota
	// OriginGuard is a fault inside a guard predicate.
	OriginGuard
)

func (o Origin) String() string {
	if o == OriginGuard {
		return "guard"
	}
	return "handler"
}

// State is a binding's lifecycle state under fault policy.
type State uint8

const (
	// Healthy bindings dispatch normally.
	Healthy State = iota
	// Quarantined bindings are compiled out of their event's dispatch
	// plan; readmission is pending backoff expiry.
	Quarantined
	// Probation bindings dispatch again, under a tightened budget; a
	// relapse re-quarantines with doubled backoff.
	Probation
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Quarantined:
		return "quarantined"
	case Probation:
		return "probation"
	}
	return "state(?)"
}

// Record is one captured fault.
type Record struct {
	// Seq is the ledger-wide capture sequence (1-based).
	Seq uint64
	// Kind and Origin classify the fault.
	Kind   Kind
	Origin Origin
	// Event and Handler name where the fault occurred; Module names the
	// handler's installing module ("" when anonymous).
	Event   string
	Handler string
	Module  string
	// Value is the recovered panic value (KindPanic, KindCompare).
	Value any
	// Stack is the goroutine stack captured at recovery (nil for
	// deadline records).
	Stack []byte
	// Cost is the configured deadline (KindDeadline).
	Cost vtime.Duration
}

func (r Record) String() string {
	s := fmt.Sprintf("#%d %s %s %s", r.Seq, r.Kind, r.Origin, r.Handler)
	if r.Event != "" {
		s += " on " + r.Event
	}
	if r.Value != nil {
		s += fmt.Sprintf(": %v", r.Value)
	}
	if r.Cost > 0 {
		s += fmt.Sprintf(" (%v)", r.Cost)
	}
	return s
}

// Policy configures fault budgets and lifecycle timing. The zero value is
// record-only: faults are captured in the ledger but never quarantine
// anything (Budget 0 disables enforcement). The rest of the lifecycle is
// fixed: one fault on probation re-quarantines, probation lasts Backoff,
// each relapse doubles the backoff up to 100 × Backoff, and the ledger
// keeps the last 256 records.
type Policy struct {
	// Budget is the number of budgeted faults a healthy binding may
	// accumulate before being quarantined (the Budget-th fault triggers).
	// Zero disables quarantine entirely (record-only).
	Budget int
	// Backoff is the initial quarantine duration before probation, and
	// the length of probation; zero selects 100ms. On a simulated machine
	// it elapses in virtual time.
	Backoff time.Duration
}

// history is the ledger's record ring capacity.
const history = 256

// DefaultPolicy returns an enforcing policy with conventional settings:
// three faults quarantine a binding, probation tolerates none, backoff
// starts at 100ms and doubles per relapse.
func DefaultPolicy() Policy {
	return Policy{Budget: 3, Backoff: 100 * time.Millisecond}
}

// Enforcing reports whether the policy can quarantine anything.
func (p Policy) Enforcing() bool { return p.Budget > 0 }

func (p *Policy) normalize() {
	if p.Backoff <= 0 {
		p.Backoff = 100 * time.Millisecond
	}
}

// Action is the ledger's verdict on one observed fault. The caller (the
// dispatcher) is responsible for carrying it out.
type Action struct {
	// Quarantine directs the caller to compile the faulting binding out
	// of its event's plan.
	Quarantine bool
	// Backoff is how long the quarantine should last before probation.
	Backoff time.Duration
	// Level is the quarantine generation (0 for the first quarantine,
	// incremented on each relapse); backoff grows exponentially with it.
	Level int
}

// entry is the per-key lifecycle record.
type entry struct {
	state  State
	faults int // budgeted faults since the last state transition
	level  int // quarantine generation
}

// Ledger captures fault records and applies Policy. All methods are safe
// for concurrent use. Keys are opaque; the dispatcher keys bindings by
// *Binding.
type Ledger struct {
	policy Policy

	mu      sync.Mutex
	seq     uint64
	ring    []Record // grown by append up to history, then oldest overwritten
	next    int      // ring write cursor
	total   int      // records ever captured
	entries map[any]*entry
}

// NewLedger creates a ledger applying policy (normalized: zero fields get
// their documented defaults).
func NewLedger(policy Policy) *Ledger {
	policy.normalize()
	return &Ledger{
		policy:  policy,
		entries: make(map[any]*entry),
	}
}

// Policy returns the ledger's normalized policy.
func (l *Ledger) Policy() Policy { return l.policy }

// record stamps r and appends it to the ring. Caller holds l.mu. The ring
// grows with the faults, so a ledger that never sees one holds none: only
// once it holds history records does it wrap.
func (l *Ledger) record(r Record) {
	l.seq++
	r.Seq = l.seq
	l.total++
	if len(l.ring) < history {
		l.ring = append(l.ring, r)
	} else {
		l.ring[l.next] = r
	}
	l.next = (l.next + 1) % history
}

// Note captures an observational record that never counts against any
// budget (e.g. KindCompare from the purity monitor).
func (l *Ledger) Note(r Record) {
	l.mu.Lock()
	l.record(r)
	l.mu.Unlock()
}

// Observe captures a budgeted fault attributed to key and returns the
// policy's verdict.
func (l *Ledger) Observe(key any, r Record) Action {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.record(r)

	var act Action
	if l.policy.Budget > 0 && key != nil {
		e := l.entries[key]
		if e == nil {
			e = &entry{}
			l.entries[key] = e
		}
		switch e.state {
		case Quarantined:
			// A straggling invocation (e.g. an abandoned EPHEMERAL
			// handler) faulted after quarantine; record only.
		case Probation:
			// A relapse: one fault on probation re-quarantines.
			e.state = Quarantined
			e.faults = 0
			e.level++
			act = Action{Quarantine: true, Backoff: l.backoffFor(e.level), Level: e.level}
		default: // Healthy
			e.faults++
			if e.faults >= l.policy.Budget {
				e.state = Quarantined
				e.faults = 0
				act = Action{Quarantine: true, Backoff: l.backoffFor(e.level), Level: e.level}
			}
		}
	}
	return act
}

// backoffFor computes the exponential backoff for a quarantine generation:
// Backoff doubled per level, capped at 100 × Backoff. Caller holds l.mu.
func (l *Ledger) backoffFor(level int) time.Duration {
	b, most := l.policy.Backoff, 100*l.policy.Backoff
	for i := 0; i < level; i++ {
		if b *= 2; b >= most {
			return most
		}
	}
	return b
}

// Readmit moves a quarantined key to probation (backoff expired). It
// reports false if the key is not currently quarantined — e.g. it was
// forgotten by an uninstall racing the readmission timer.
func (l *Ledger) Readmit(key any) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entries[key]
	if e == nil || e.state != Quarantined {
		return false
	}
	e.state = Probation
	e.faults = 0
	return true
}

// Restore moves a probation key back to full health (clean probation):
// the fault count and quarantine generation reset, so a future fault
// sequence starts from the original budget and backoff. It reports false
// if the key relapsed out of probation (or was forgotten) in the meantime.
func (l *Ledger) Restore(key any) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entries[key]
	if e == nil || e.state != Probation {
		return false
	}
	e.state = Healthy
	e.faults = 0
	e.level = 0
	return true
}

// Forget drops all lifecycle state for key (uninstall).
func (l *Ledger) Forget(key any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.entries, key)
}

// State reports key's lifecycle state.
func (l *Ledger) State(key any) State {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.entries[key]; e != nil {
		return e.state
	}
	return Healthy
}

// Level reports key's quarantine generation.
func (l *Ledger) Level(key any) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.entries[key]; e != nil {
		return e.level
	}
	return 0
}

// Total reports the number of records ever captured (including records the
// ring has since overwritten).
func (l *Ledger) Total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Records returns the retained fault records, oldest first.
func (l *Ledger) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, 0, len(l.ring))
	if len(l.ring) < history {
		return append(out, l.ring...)
	}
	out = append(out, l.ring[l.next:]...)
	return append(out, l.ring[:l.next]...)
}
