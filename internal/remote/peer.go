package remote

import (
	"errors"
	"fmt"
	"time"

	"spin/internal/admit"
	"spin/internal/dispatch"
	"spin/internal/fault"
	"spin/internal/netstack"
	"spin/internal/sched"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// The sender half of the transport: a Peer owns one remote machine's
// failure domain. Raises flow through the circuit breaker, onto a TCP
// connection the peer dials (and redials) itself, with a per-raise
// deadline and jittered-exponential retransmission driven by
// sched.Scheduler.After. Every terminal outcome is accounted in an
// admission-style ledger; breaker trips charge the fault ledger, emit
// trace spans, and move the machine's degradation level so bound raises
// re-route to local fallbacks or shed instead of queueing into a
// partition.

// Degradation levels the peer forces on its Degrader ladder.
const (
	// LevelNormal: breaker closed, remote traffic flows.
	LevelNormal = 0
	// LevelTripped: breaker open on deadline/connection failures.
	LevelTripped = 1
	// LevelPartitioned: heartbeat misses exhausted — the peer is declared
	// unreachable.
	LevelPartitioned = 2
)

// Errors.
var (
	// ErrPeerOpen reports a raise rejected locally because the breaker is
	// open (and no fallback was bound).
	ErrPeerOpen = errors.New("remote: peer circuit open")
	// ErrDegraded reports a raise shed because the degradation level
	// disabled its priority class.
	ErrDegraded = errors.New("remote: raise shed by degradation level")
)

// PeerConfig assembles a Peer from one machine's substrates.
type PeerConfig struct {
	// Name labels the peer in traces and the fault ledger.
	Name string
	// Self is the sender identity stamped on every raise; the receiver
	// keys its dedup window by it, so it must be stable across redials.
	Self string
	// Addr and Port locate the peer's Receiver.
	Addr string
	Port uint16

	Stack *netstack.Stack
	Sched *sched.Scheduler
	Clock *vtime.Clock

	// Deadline is the per-raise budget from first transmission to
	// terminal verdict; 0 selects 20ms (~40 calibrated round trips).
	Deadline vtime.Duration
	// MaxAttempts bounds transmissions per raise (first send plus
	// retries); 0 selects 4.
	MaxAttempts int
	// Breaker tunes the circuit; see BreakerConfig.
	Breaker BreakerConfig

	// HeartbeatEvery probes peer health on this period; 0 disables
	// heartbeats (and partition detection).
	HeartbeatEvery vtime.Duration
	// HeartbeatMisses is the consecutive unanswered probes that declare a
	// partition; 0 selects 3.
	HeartbeatMisses int

	// Faults, Tracer, Degrader are the failure-domain integrations; each
	// is optional.
	Faults   *fault.Ledger
	Tracer   *trace.Tracer
	Degrader *admit.Degrader
}

// Binding routes an event to the peer with degradation semantics: when
// the breaker is open or the degradation level disables the binding's
// priority class, the raise re-routes to the local Fallback event (if
// any) instead of the wire.
type Binding struct {
	// Event is the wire event name.
	Event string
	// Priority is the degradation class: 0 essential (never shed by
	// level), higher more optional.
	Priority int
	// Fallback, when set, handles the raise locally when the remote path
	// is unavailable.
	Fallback *dispatch.Event
}

// PeerStats counts the sender's terminal outcomes.
type PeerStats struct {
	// Delivered counts raises acked StatusApplied/NoHandler/Ambiguous.
	Delivered int64
	// Deduped counts raises acked StatusDup: a retry landed after the
	// original — delivered exactly once despite both transmissions.
	Deduped int64
	// RejectedRemote counts raises the receiver refused (admission or
	// stale token).
	RejectedRemote int64
	// TimedOut counts raises that exhausted deadline or attempts.
	TimedOut int64
	// Shed counts raises rejected locally (breaker open or degradation)
	// with no fallback.
	Shed int64
	// Rerouted counts raises handled by a local fallback.
	Rerouted int64
	// Redials counts connection (re)establishment attempts.
	Redials int64
	// HeartbeatsSent and HeartbeatMisses count the health probe traffic.
	HeartbeatsSent  int64
	HeartbeatMisses int64
}

// retryDelay is the jittered exponential delay of transmission attempt
// (1-based), which doubles as that attempt's ack timeout: 5ms, doubling per
// attempt up to 1s. rand (a word of entropy) lands it in [d/2, d], so the
// retries of a burst of losses spread out instead of returning in lockstep.
func retryDelay(attempt int, rand uint64) time.Duration {
	const base, maxd = 5 * time.Millisecond, time.Second
	d := base
	for i := 1; i < attempt && d < maxd; i++ {
		d *= 2
	}
	d = min(d, maxd)
	half := d / 2
	return half + time.Duration(rand%uint64(half+1))
}

// splitmix64 advances a deterministic jitter stream for retry backoff
// (same generator the wire fault injector uses, separate state).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pendingRaise tracks one in-flight raise between first send and verdict.
type pendingRaise struct {
	token      uint64
	frame      []byte // encoded once; retries resend the same bytes
	attempt    int
	epoch      int // connection generation the last attempt was sent on
	deadlineAt vtime.Time
	binding    Binding
	args       []any
	done       func(Status, error)
}

// Peer is the sending endpoint for one remote machine.
type Peer struct {
	cfg     PeerConfig
	breaker *Breaker
	// rng is the retry jitter stream (splitmix64), which every peer starts
	// at zero: a peer's retry schedule is a function of its raises alone.
	rng uint64

	conn    *netstack.TCPConn
	epoch   int      // increments per dial; stale-conn detection for retries
	txq     [][]byte // frames queued while the handshake is in flight
	pending map[uint64]*pendingRaise
	token   uint64

	hbToken       uint64
	hbOutstanding bool
	hbMisses      int
	partitioned   bool
	stopped       bool

	stats PeerStats
	// ledger mirrors the admission-queue accounting contract so shed
	// remote raises are visible the same way shed local submissions are.
	ledger admit.QueueStats
}

// NewPeer builds the sending endpoint. Heartbeats (when configured) start
// on the first Raise.
func NewPeer(cfg PeerConfig) *Peer {
	if cfg.Deadline <= 0 {
		cfg.Deadline = vtime.Duration(20 * 1000 * 1000) // 20ms
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	p := &Peer{cfg: cfg, pending: make(map[uint64]*pendingRaise)}
	p.breaker = newBreaker(cfg.Breaker, cfg.Clock)
	p.breaker.OnTransition = p.onBreaker
	return p
}

// Stats snapshots the peer's outcome counters.
func (p *Peer) Stats() PeerStats { return p.stats }

// Ledger snapshots the peer's admission-style accounting: Submitted =
// Completed + Shed + Depth once traffic drains, exactly the queue
// contract, so operator tooling reads remote shedding the way it reads
// local overload.
func (p *Peer) Ledger() admit.QueueStats {
	l := p.ledger
	l.Depth = len(p.pending)
	return l
}

// Breaker exposes the circuit for tests and the drill report.
func (p *Peer) Breaker() *Breaker { return p.breaker }

// Close stops heartbeats and aborts the connection. Pending raises still
// run out their deadlines.
func (p *Peer) Close() {
	p.stopped = true
	if p.conn != nil {
		p.conn.Abort()
		p.conn = nil
	}
}

// Raise sends event across the wire with no binding semantics: breaker
// rejection is an immediate ErrPeerOpen.
func (p *Peer) Raise(event string, args ...any) error {
	return p.RaiseBound(Binding{Event: event}, args...)
}

// RaiseBound sends a bound raise. The verdict is asynchronous (the wire
// is); the returned error covers only immediate local rejections —
// breaker-open or degradation-shed with no fallback — and fallback
// dispatch errors.
func (p *Peer) RaiseBound(b Binding, args ...any) error {
	return p.raise(b, nil, args)
}

// RaiseCall is RaiseBound with a verdict callback: done runs exactly once
// with the terminal status (StatusApplied, StatusDup, ... or 0 with an
// error for local rejection and timeout).
func (p *Peer) RaiseCall(b Binding, done func(Status, error), args ...any) error {
	return p.raise(b, done, args)
}

func (p *Peer) raise(b Binding, done func(Status, error), args []any) error {
	p.ledger.Submitted++
	if p.stopped {
		return p.rejectLocal(b, done, args, ErrPeerOpen)
	}
	// Degradation first: a disabled priority class never reaches the
	// breaker (essential classes — priority 0 — always do).
	if d := p.cfg.Degrader; d != nil && b.Priority > 0 {
		if min := d.MinPriority(); min > 0 && b.Priority >= min {
			return p.rejectLocal(b, done, args, ErrDegraded)
		}
	}
	if !p.breaker.allow() {
		return p.rejectLocal(b, done, args, ErrPeerOpen)
	}
	p.startHeartbeats()

	p.token++
	pr := &pendingRaise{
		token:      p.token,
		attempt:    1,
		deadlineAt: p.cfg.Clock.Now().Add(p.cfg.Deadline),
		binding:    b,
		args:       args,
		done:       done,
	}
	frame, err := appendMessage(nil, &Message{
		Kind:       MsgRaise,
		Sender:     p.cfg.Self,
		Token:      pr.token,
		Event:      b.Event,
		DeadlineNS: int64(p.cfg.Deadline),
		Args:       args,
	})
	if err != nil {
		p.ledger.Shed++
		return err // unencodable args never leave the machine
	}
	pr.frame = frame
	p.pending[pr.token] = pr
	p.sendAttempt(pr)
	return nil
}

// rejectLocal settles a raise without touching the wire: fallback if
// bound, shed otherwise.
func (p *Peer) rejectLocal(b Binding, done func(Status, error), args []any, cause error) error {
	p.ledger.Shed++
	if b.Fallback != nil {
		p.stats.Rerouted++
		_, err := b.Fallback.Raise(args...)
		if done != nil {
			done(0, cause)
		}
		return err
	}
	p.stats.Shed++
	if done != nil {
		done(0, cause)
	}
	return cause
}

// sendAttempt transmits (or queues) one attempt and arms its ack timer.
func (p *Peer) sendAttempt(pr *pendingRaise) {
	p.send(pr.frame)
	pr.epoch = p.epoch
	attempt := pr.attempt
	timeout := vtime.Duration(retryDelay(attempt, splitmix64(&p.rng)).Nanoseconds())
	_ = p.cfg.Sched.After(timeout, func() { p.onTimeout(pr, attempt) })
}

// onTimeout fires when an attempt's ack window closes. A stale timer (the
// raise settled, or a newer attempt superseded this one) is a no-op.
func (p *Peer) onTimeout(pr *pendingRaise, attempt int) {
	if p.pending[pr.token] != pr || pr.attempt != attempt {
		return
	}
	if pr.attempt >= p.cfg.MaxAttempts || p.cfg.Clock.Now() >= pr.deadlineAt ||
		p.stopped || !p.breaker.allow() {
		// Terminal: out of budget, or the breaker no longer admits
		// retries for this raise. One raise charges one breaker failure
		// regardless of how many attempts it burned, so the trip budget
		// reads in raises, not transmissions.
		delete(p.pending, pr.token)
		p.breaker.failure()
		p.stats.TimedOut++
		p.ledger.Shed++
		if pr.binding.Fallback != nil {
			p.stats.Rerouted++
			_, _ = pr.binding.Fallback.Raise(pr.args...)
		}
		if pr.done != nil {
			pr.done(0, fmt.Errorf("remote: raise %d to %s timed out after %d attempts",
				pr.token, p.cfg.Name, pr.attempt))
		}
		return
	}
	// The simulated TCP neither retransmits nor resequences: one lost
	// segment in either direction wedges that stream forever (later
	// segments arrive out of order and are dropped). An unacked attempt is
	// therefore evidence the connection is unusable, not just slow — abort
	// it so the retry rides a fresh stream. The epoch guard keeps a slow
	// timer from killing a connection dialed after its attempt went out.
	if p.conn != nil && pr.epoch == p.epoch {
		p.conn.Abort()
		p.conn = nil
	}
	pr.attempt++
	p.ledger.Retried++
	p.sendAttempt(pr)
}

// handleAck settles the pending raise an ack names.
func (p *Peer) handleAck(m *Message) {
	pr := p.pending[m.Token]
	if pr == nil {
		return // duplicate ack, or the raise already timed out
	}
	delete(p.pending, m.Token)
	p.ledger.Completed++
	p.breaker.success()
	switch m.Status {
	case StatusDup:
		p.stats.Deduped++
	case StatusRejected, StatusUnknown:
		p.stats.RejectedRemote++
	default:
		p.stats.Delivered++
	}
	if pr.done != nil {
		pr.done(m.Status, nil)
	}
}

// send transmits a frame on the peer connection, dialing if necessary;
// frames sent mid-handshake queue and flush on establishment.
func (p *Peer) send(frame []byte) {
	p.ensureConn()
	c := p.conn
	if c == nil {
		return // undialable now; the attempt timer retries
	}
	if !c.Established() {
		p.txq = append(p.txq, frame)
		return
	}
	_ = c.Send(frame)
}

// ensureConn dials the peer if there is no live connection.
func (p *Peer) ensureConn() {
	if p.conn != nil && !p.conn.Closed() {
		return
	}
	p.conn = nil
	p.txq = p.txq[:0]
	c, err := p.cfg.Stack.DialTCP(p.cfg.Addr, p.cfg.Port)
	if err != nil {
		return
	}
	p.stats.Redials++
	p.epoch++
	p.conn = c
	p.spawnConnStrand(c)
}

// spawnConnStrand runs one connection's lifecycle: wait for the
// handshake, flush queued frames, then read acks until teardown. The
// netstack reaps aborted/reset/timed-out connections and wakes this
// strand, so a dead peer retires it instead of leaking it.
func (p *Peer) spawnConnStrand(c *netstack.TCPConn) {
	var buf []byte
	p.cfg.Sched.Spawn("remote-peer-"+p.cfg.Name, 1, func(st *sched.Strand) sched.Status {
		if !c.Established() && !c.Closed() {
			c.AwaitEstablished(st)
			return sched.Block
		}
		if c.Established() && p.conn == c && len(p.txq) > 0 {
			for _, f := range p.txq {
				_ = c.Send(f)
			}
			p.txq = p.txq[:0]
		}
		for {
			d, ok := c.Recv()
			if !ok {
				break
			}
			buf = append(buf, d...)
		}
		for len(buf) > 0 {
			m, n, err := decodeMessage(buf)
			if errors.Is(err, ErrTruncated) {
				break
			}
			if err != nil {
				c.Abort() // CRC damage: redial on the next attempt
				if p.conn == c {
					p.conn = nil
				}
				return sched.Done
			}
			buf = buf[n:]
			switch m.Kind {
			case MsgAck:
				p.handleAck(&m)
			case MsgHeartbeatAck:
				p.handleHeartbeatAck(&m)
			}
		}
		if c.Closed() || c.EOF() {
			if p.conn == c {
				p.conn = nil
			}
			return sched.Done
		}
		c.AwaitData(st)
		return sched.Block
	})
}

// startHeartbeats arms the periodic health probe once.
func (p *Peer) startHeartbeats() {
	if p.cfg.HeartbeatEvery <= 0 || p.hbToken > 0 || p.stopped {
		return
	}
	p.hbToken = 1
	_ = p.cfg.Sched.After(p.cfg.HeartbeatEvery, p.heartbeatTick)
}

// heartbeatTick sends one probe, charges a miss if the previous one went
// unanswered, and declares a partition when the miss budget exhausts.
func (p *Peer) heartbeatTick() {
	if p.stopped {
		return
	}
	if p.hbOutstanding {
		p.hbMisses++
		p.stats.HeartbeatMisses++
		// A missed probe means the stream (or the peer) is gone; abort so
		// the next probe redials instead of riding a wedged connection.
		if p.conn != nil {
			p.conn.Abort()
			p.conn = nil
		}
		if p.hbMisses >= p.cfg.HeartbeatMisses && !p.partitioned {
			p.partitioned = true
			p.breaker.forceOpen()
		}
	} else {
		p.hbMisses = 0
	}
	p.hbToken++
	frame, _ := appendMessage(nil, &Message{Kind: MsgHeartbeat, Sender: p.cfg.Self, Token: p.hbToken})
	p.hbOutstanding = true
	p.stats.HeartbeatsSent++
	p.send(frame)
	_ = p.cfg.Sched.After(p.cfg.HeartbeatEvery, p.heartbeatTick)
}

// handleHeartbeatAck clears the outstanding probe; an answered probe
// while half-open is the heal signal that closes the breaker.
func (p *Peer) handleHeartbeatAck(m *Message) {
	if m.Token != p.hbToken {
		return // an old probe racing in; only the newest clears the miss run
	}
	p.hbOutstanding = false
	p.hbMisses = 0
	if p.partitioned {
		p.partitioned = false
	}
	if p.breaker.State() == BreakerHalfOpen {
		p.breaker.success()
	}
}

// onBreaker is the transition hook: trace span, fault-ledger charge, and
// degradation-level force.
func (p *Peer) onBreaker(from, to BreakerState) {
	if t := p.cfg.Tracer; t != nil {
		t.Breaker(p.cfg.Name, int(from), int(to))
	}
	switch to {
	case BreakerOpen:
		level := LevelTripped
		reason := "trip"
		if p.partitioned {
			level = LevelPartitioned
			reason = "partition"
		}
		if l := p.cfg.Faults; l != nil {
			l.Note(fault.Record{
				Kind:    fault.KindRemote,
				Origin:  fault.OriginHandler,
				Event:   reason,
				Handler: p.cfg.Name,
				Module:  "remote",
			})
		}
		p.forceLevel(level)
	case BreakerClosed:
		p.forceLevel(LevelNormal)
	}
}

func (p *Peer) forceLevel(level int) {
	d := p.cfg.Degrader
	if d == nil {
		return
	}
	from, to, changed := d.Force(level)
	if changed && p.cfg.Tracer != nil {
		p.cfg.Tracer.Degrade(from, to, "remote:"+p.cfg.Name)
	}
}
