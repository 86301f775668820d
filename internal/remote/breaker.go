package remote

import "spin/internal/vtime"

// Per-peer circuit breaking. The breaker sits between the sender's retry
// loop and the wire: while Closed it passes raises through; TripBudget
// consecutive failures open it, and while Open every raise is rejected
// locally (shed or re-routed to a fallback) without touching the wire.
// After Cooldown of virtual time the breaker half-opens and admits one
// probe raise; its success closes it, its failure re-opens it for another
// cooldown. Transitions are reported through OnTransition so the peer can
// charge them to the fault ledger, emit trace spans, and move the
// admission degrader.

// BreakerState enumerates the circuit states.
type BreakerState int

const (
	// BreakerClosed: healthy, traffic flows.
	BreakerClosed BreakerState = iota
	// BreakerOpen: tripped, all traffic rejected until the cooldown ends.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed, probe traffic admitted.
	BreakerHalfOpen
)

//spinvet:pure
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "breaker(?)"
}

// BreakerConfig tunes a Breaker. Zero values select the defaults.
type BreakerConfig struct {
	// TripBudget is the number of consecutive failures that opens the
	// breaker (default 3).
	TripBudget int
	// Cooldown is the virtual-time hold in Open before half-opening
	// (default 50ms — about a hundred calibrated round trips).
	Cooldown vtime.Duration
}

// DefaultCooldown is the Open hold before a half-open probe.
const DefaultCooldown = vtime.Duration(50 * 1000 * 1000) // 50ms

// Breaker is one peer's circuit. It is driven entirely by its owner's
// calls (allow / success / failure) plus a virtual clock for the cooldown;
// it owns no timers, so an idle open breaker costs nothing.
type Breaker struct {
	cfg   BreakerConfig
	clock *vtime.Clock
	state BreakerState
	// consecFails counts failures since the last success (Closed).
	consecFails int
	// openedAt stamps the trip, starting the cooldown.
	openedAt vtime.Time
	// probing marks the one half-open probe in flight: HalfOpen rejects
	// further traffic until its verdict lands.
	probing bool
	// Trips counts Closed/HalfOpen→Open transitions over the breaker's
	// lifetime.
	Trips int64
	// OnTransition, when set, observes every state change.
	OnTransition func(from, to BreakerState)
}

// newBreaker builds a breaker on the clock.
func newBreaker(cfg BreakerConfig, clock *vtime.Clock) *Breaker {
	if cfg.TripBudget <= 0 {
		cfg.TripBudget = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCooldown
	}
	return &Breaker{cfg: cfg, clock: clock}
}

// State reports the current state, promoting Open to HalfOpen if the
// cooldown has elapsed.
func (b *Breaker) State() BreakerState {
	if b.state == BreakerOpen && b.clock.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.transition(BreakerHalfOpen)
		b.probing = false
	}
	return b.state
}

// allow reports whether a raise may go to the wire now. In HalfOpen it
// admits one in-flight probe.
func (b *Breaker) allow() bool {
	switch b.State() {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			return true
		}
		return false
	default:
		return false
	}
}

// success records a delivered raise (or heartbeat ack): a half-open probe
// success closes the breaker; in Closed it clears the failure run.
func (b *Breaker) success() {
	switch b.state {
	case BreakerHalfOpen:
		b.transition(BreakerClosed)
	}
	b.consecFails = 0
	b.probing = false
}

// failure records a raise that exhausted its deadline or lost its
// connection. TripBudget consecutive failures in Closed — or any failure
// in HalfOpen — opens the breaker.
func (b *Breaker) failure() {
	switch b.State() {
	case BreakerHalfOpen:
		b.trip()
	case BreakerClosed:
		b.consecFails++
		if b.consecFails >= b.cfg.TripBudget {
			b.trip()
		}
	}
}

// forceOpen trips the breaker immediately (partition detected via
// heartbeat loss), regardless of the failure run.
func (b *Breaker) forceOpen() {
	if b.State() != BreakerOpen {
		b.trip()
	}
}

func (b *Breaker) trip() {
	b.openedAt = b.clock.Now()
	b.consecFails = 0
	b.probing = false
	b.Trips++
	b.transition(BreakerOpen)
}

func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.OnTransition != nil {
		b.OnTransition(from, to)
	}
}
