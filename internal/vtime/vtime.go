// Package vtime provides the virtual-time substrate for the SPIN event
// system reproduction: a virtual clock, a discrete-event simulator, and a
// cost model calibrated to the DEC Alpha AXP 3000/400 measurements reported
// in the paper (OSDI '96, §3.1).
//
// The paper reports dispatch latencies in microseconds on 1996 hardware.
// Native Go benchmarks on modern hardware cannot reproduce those absolute
// numbers, so the simulation layers of this repository execute against a
// virtual clock: every architectural operation (procedure call, indirect
// call, guard evaluation, thread spawn, wire transmission, ...) charges a
// calibrated cost to a CPU meter, advancing virtual time. The benchmark
// harness then reports virtual microseconds side by side with natively
// measured nanoseconds; the former regenerate the paper's tables in their
// original units, the latter confirm the shapes on real hardware.
package vtime

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Time is an instant of virtual time, expressed in nanoseconds since the
// start of the simulation ("boot").
type Time int64

// Duration is re-exported from package time; virtual durations use the same
// representation as wall-clock durations so they format naturally.
type Duration = time.Duration

// Micros converts a microsecond quantity (the unit used throughout the
// paper) into a Duration. It accepts fractional microseconds: the paper's
// finest-grained constant is a 0.008 us per-argument charge.
func Micros(us float64) Duration {
	return Duration(us * float64(time.Microsecond))
}

// InMicros reports d in fractional microseconds, the paper's unit.
func InMicros(d Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between two instants.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the instant as a duration since boot.
func (t Time) String() string { return Duration(t).String() }

// Clock is a monotonically advancing virtual clock. It is safe for
// concurrent use; in the single-threaded discrete-event simulations used by
// the benchmark harness only one goroutine advances it, but unit tests and
// the real-time dispatcher configurations may read it from several.
type Clock struct {
	now atomic.Int64
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return Time(c.now.Load()) }

// Advance moves the clock forward by d and returns the new time. Advancing
// by a negative duration panics: virtual time, like the paper's measured
// time, never runs backwards.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("vtime: clock advanced by negative duration %v", d))
	}
	return Time(c.now.Add(int64(d)))
}

// advanceTo moves the clock forward to t if t is in the future; it never
// moves the clock backwards. It returns the (possibly unchanged) current
// time.
func (c *Clock) advanceTo(t Time) Time {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return Time(cur)
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}
