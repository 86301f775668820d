package remote

import (
	"testing"

	"spin/internal/vtime"
)

func testBreaker(cfg BreakerConfig) (*Breaker, *vtime.Clock) {
	clock := &vtime.Clock{}
	return newBreaker(cfg, clock), clock
}

func TestBreakerTripsAtBudget(t *testing.T) {
	b, _ := testBreaker(BreakerConfig{TripBudget: 3})
	var transitions [][2]BreakerState
	b.OnTransition = func(from, to BreakerState) {
		transitions = append(transitions, [2]BreakerState{from, to})
	}
	b.failure()
	b.failure()
	if b.State() != BreakerClosed || !b.allow() {
		t.Fatal("tripped below budget")
	}
	b.failure() // third consecutive: trip
	if b.State() != BreakerOpen || b.allow() {
		t.Fatal("did not trip at budget")
	}
	if b.Trips != 1 {
		t.Fatalf("trips = %d", b.Trips)
	}
	if len(transitions) != 1 || transitions[0] != [2]BreakerState{BreakerClosed, BreakerOpen} {
		t.Fatalf("transitions = %v", transitions)
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b, _ := testBreaker(BreakerConfig{TripBudget: 3})
	b.failure()
	b.failure()
	b.success()
	b.failure()
	b.failure()
	if b.State() != BreakerClosed {
		t.Fatal("failure run survived an intervening success")
	}
}

func TestBreakerHalfOpensAfterCooldownAndClosesOnProbeSuccess(t *testing.T) {
	b, clock := testBreaker(BreakerConfig{TripBudget: 1, Cooldown: 100})
	b.failure()
	if b.State() != BreakerOpen {
		t.Fatal("not open")
	}
	clock.Advance(99)
	if b.State() != BreakerOpen || b.allow() {
		t.Fatal("half-opened early")
	}
	clock.Advance(1)
	if b.State() != BreakerHalfOpen {
		t.Fatal("did not half-open at cooldown")
	}
	// One probe admitted, further traffic rejected while it is in flight.
	if !b.allow() {
		t.Fatal("probe rejected")
	}
	if b.allow() {
		t.Fatal("second probe admitted while the first is in flight")
	}
	b.success()
	if b.State() != BreakerClosed || !b.allow() {
		t.Fatal("probe success did not close")
	}
}

func TestBreakerReopensOnProbeFailure(t *testing.T) {
	b, clock := testBreaker(BreakerConfig{TripBudget: 1, Cooldown: 100})
	b.failure()
	clock.Advance(100)
	if !b.allow() {
		t.Fatal("probe rejected")
	}
	b.failure()
	if b.State() != BreakerOpen {
		t.Fatal("probe failure did not re-open")
	}
	if b.Trips != 2 {
		t.Fatalf("trips = %d", b.Trips)
	}
	// The cooldown restarts from the re-trip.
	clock.Advance(99)
	if b.State() != BreakerOpen {
		t.Fatal("cooldown did not restart")
	}
	clock.Advance(1)
	if b.State() != BreakerHalfOpen {
		t.Fatal("no second half-open")
	}
}

func TestBreakerForceOpen(t *testing.T) {
	b, _ := testBreaker(BreakerConfig{})
	b.forceOpen()
	if b.State() != BreakerOpen || b.allow() {
		t.Fatal("ForceOpen did not trip")
	}
	b.forceOpen() // idempotent while open
	if b.Trips != 1 {
		t.Fatalf("trips = %d", b.Trips)
	}
}
