package netwire

import (
	"spin/internal/vtime"
)

// Deterministic, seedable wire-fault injection. The calibrated link is
// lossless by default; a FaultPlan makes it drop, duplicate, delay, or
// corrupt frames, and Partition blackholes traffic between NIC pairs.
// Every decision is drawn from a splitmix64 stream owned by the link, so a
// given (seed, traffic) pair replays the exact same fault schedule in
// virtual time — the property the remote-raise partition drill and the
// retry/dedup proofs depend on.

// DefaultReorderDelay is the extra in-flight delay a reordered frame pays
// when the plan does not specify one: long enough for a back-to-back
// successor frame to overtake it.
const DefaultReorderDelay = vtime.Duration(500 * 1000) // 500us

// FaultPlan configures per-frame fault probabilities. Rates are
// probabilities in [0, 1], evaluated independently per frame in this
// order: drop, corrupt, duplicate, reorder (a dropped frame draws no
// further verdicts). The zero plan injects nothing.
type FaultPlan struct {
	// Seed initializes the link's fault RNG stream. Re-injecting a plan
	// (even an identical one) reseeds the stream.
	Seed uint64
	// Drop is the probability a frame vanishes in flight (after consuming
	// wire time, as a real collision or CRC-rejected frame would).
	Drop float64
	// Corrupt is the probability a frame is delivered with flipped payload
	// bytes. Payloads opt in via Corruptible; a non-Corruptible payload is
	// dropped instead (the corruption is then indistinguishable from loss,
	// which is what a receiving NIC's FCS check would do anyway).
	Corrupt float64
	// Duplicate is the probability a frame is delivered twice, the copy
	// arriving one serialization delay after the original (a retransmitted
	// frame whose original was not actually lost).
	Duplicate float64
	// Reorder is the probability a frame is held back by ReorderDelay so
	// that later frames overtake it.
	Reorder float64
	// ReorderDelay is the hold-back applied to reordered frames; zero
	// selects DefaultReorderDelay.
	ReorderDelay vtime.Duration
}

// active reports whether the plan can inject anything.
func (p FaultPlan) active() bool {
	return p.Drop > 0 || p.Corrupt > 0 || p.Duplicate > 0 || p.Reorder > 0
}

// Corruptible lets a frame payload opt into byte-level corruption: the
// injector asks for a corrupted *copy* (the sender's object must never be
// mutated — it may still be referenced by a retransmit path). r is a word
// of deterministic entropy selecting which byte/bit to flip.
type Corruptible interface {
	CorruptedCopy(r uint64) any
}

// FaultStats counts injected faults on a link.
type FaultStats struct {
	// Drops, Corrupts, Duplicates, Reorders count frames affected by each
	// randomized verdict. A corrupt verdict on a non-Corruptible payload
	// counts under Corrupts (and is dropped).
	Drops      int64
	Corrupts   int64
	Duplicates int64
	Reorders   int64
	// PartitionDrops counts frames blackholed by an active partition,
	// evaluated at send time so healing releases only traffic sent after
	// the heal.
	PartitionDrops int64
}

// faultState is the link's injector: plan, RNG cursor, partition set.
type faultState struct {
	plan  FaultPlan
	rng   uint64
	parts map[[2]string]bool
	stats FaultStats
}

// splitmix64 advances the state and returns the next word of the stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// hit draws one Bernoulli verdict at rate from the word r (53 uniform
// bits, the float64 mantissa width).
func hit(r uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(r>>11)/float64(1<<53) < rate
}

// InjectFaults installs (or replaces) the link's fault plan and reseeds
// the RNG stream. Partitions are independent of the plan and survive
// re-injection.
func (l *Link) InjectFaults(plan FaultPlan) {
	l.ensureFaults()
	l.faults.plan = plan
	l.faults.rng = plan.Seed
}

// ClearFaults removes the randomized fault plan. Partitions stay until
// healed.
func (l *Link) ClearFaults() {
	if l.faults != nil {
		l.faults.plan = FaultPlan{}
	}
}

// FaultStats returns a snapshot of the injected-fault counters.
func (l *Link) FaultStats() FaultStats {
	if l.faults == nil {
		return FaultStats{}
	}
	return l.faults.stats
}

// Partition blackholes all traffic between the two NIC addresses, in both
// directions, from this virtual instant on. Frames already in flight when
// the partition starts still arrive (the cut severs the cable, not the
// photons past it). Broadcast delivery skips partitioned pairs the same
// way.
func (l *Link) Partition(a, b string) {
	l.ensureFaults()
	l.faults.parts[pairKey(a, b)] = true
}

// Heal removes the partition between two NIC addresses.
func (l *Link) Heal(a, b string) {
	if l.faults != nil {
		delete(l.faults.parts, pairKey(a, b))
	}
}

func (l *Link) ensureFaults() {
	if l.faults == nil {
		l.faults = &faultState{parts: make(map[[2]string]bool)}
	}
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// verdict is the per-frame fault decision, drawn once at send time so the
// schedule depends only on the seed and the traffic sequence, never on
// delivery interleaving.
type verdict struct {
	drop    bool
	corrupt bool
	dup     bool
	reorder bool
	entropy uint64 // corruption byte/bit selector
}

// draw consumes RNG words for one frame. Each verdict consumes a word
// only when its rate is non-zero, so enabling one fault mode never shifts
// the schedule another mode would have drawn on its own; a dropped frame
// draws no further verdicts.
func (f *faultState) draw() verdict {
	var v verdict
	p := f.plan
	if !p.active() {
		return v
	}
	if p.Drop > 0 && hit(splitmix64(&f.rng), p.Drop) {
		v.drop = true
		f.stats.Drops++
		return v
	}
	if p.Corrupt > 0 && hit(splitmix64(&f.rng), p.Corrupt) {
		v.corrupt = true
		v.entropy = splitmix64(&f.rng)
		f.stats.Corrupts++
	}
	if p.Duplicate > 0 && hit(splitmix64(&f.rng), p.Duplicate) {
		v.dup = true
		f.stats.Duplicates++
	}
	if p.Reorder > 0 && hit(splitmix64(&f.rng), p.Reorder) {
		v.reorder = true
		f.stats.Reorders++
	}
	return v
}

// reorderDelay returns the configured hold-back for reordered frames.
func (f *faultState) reorderDelay() vtime.Duration {
	if f.plan.ReorderDelay > 0 {
		return f.plan.ReorderDelay
	}
	return DefaultReorderDelay
}
