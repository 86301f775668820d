package remote

// Receiver-side deduplication: the at-most-once half of the exactly-once
// story. Senders stamp every raise with a monotonically increasing
// idempotency token and retry freely; the receiver keeps one Window per
// sender identity (not per connection, so redials cannot reset it) and
// admits each token at most once. The window is a sliding bitmap over the
// last Size tokens below the high-water mark — wide enough to cover the
// deepest plausible reorder (retries × in-flight pipeline; see DESIGN.md
// decision 18 for the sizing argument) — and anything at or below the
// window floor is conservatively refused as Stale: possibly seen, never
// safe to re-apply.

// Verdict classifies a token's admission.
type Verdict int

const (
	// Fresh: first sighting; apply the effects.
	Fresh Verdict = iota
	// Duplicate: already applied; ack success, do NOT re-apply.
	Duplicate
	// Stale: below the window floor; refuse (indistinguishable from a
	// duplicate, and at-most-once forbids guessing).
	Stale
)

//spinvet:pure
func (v Verdict) String() string {
	switch v {
	case Fresh:
		return "fresh"
	case Duplicate:
		return "duplicate"
	case Stale:
		return "stale"
	}
	return "verdict(?)"
}

// DefaultWindowSize covers far more reordering than the transport can
// produce: tokens arrive over one ordered TCP stream per epoch, so only
// cross-redial races and duplicated frames land out of order.
const DefaultWindowSize = 1024

// Window is one sender's dedup state: a high-water token plus a bitmap
// over the Size tokens below it.
type Window struct {
	size uint64
	// high is the largest token admitted so far.
	high uint64
	// bits[i%size] records whether token i was seen, valid for tokens in
	// (high-size, high].
	bits []uint64
	// Admitted, Duplicates, Stales count verdicts for the drill report.
	Admitted   int64
	Duplicates int64
	Stales     int64
}

// newWindow builds a dedup window over the last size tokens; size 0
// selects DefaultWindowSize. Token 0 is reserved (never admitted) so the
// zero high-water mark means "nothing seen".
func newWindow(size int) *Window {
	if size <= 0 {
		size = DefaultWindowSize
	}
	return &Window{size: uint64(size), bits: make([]uint64, (size+63)/64)}
}

func (w *Window) get(tok uint64) bool {
	i := tok % w.size
	return w.bits[i/64]&(1<<(i%64)) != 0
}

func (w *Window) set(tok uint64, on bool) {
	i := tok % w.size
	if on {
		w.bits[i/64] |= 1 << (i % 64)
	} else {
		w.bits[i/64] &^= 1 << (i % 64)
	}
}

// Admit judges one token and records it. Only Fresh tokens may have their
// effects applied.
func (w *Window) Admit(tok uint64) Verdict {
	if tok == 0 || tok+w.size <= w.high {
		w.Stales++
		return Stale
	}
	if tok > w.high {
		// Advance the high-water mark, clearing the bitmap slots the
		// window slides past (tokens skipped by loss stay unseen).
		if tok-w.high >= w.size {
			clear(w.bits)
		} else {
			for t := w.high + 1; t < tok; t++ {
				w.set(t, false)
			}
		}
		w.set(tok, true)
		w.high = tok
		w.Admitted++
		return Fresh
	}
	if w.get(tok) {
		w.Duplicates++
		return Duplicate
	}
	w.set(tok, true)
	w.Admitted++
	return Fresh
}
