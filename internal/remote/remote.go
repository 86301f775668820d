package remote

import (
	"errors"

	"spin/internal/dispatch"
	"spin/internal/netstack"
	"spin/internal/sched"
)

// The receiver half of the transport: a Receiver listens on a netstack
// TCP port, reassembles wire frames from each connection's byte stream,
// deduplicates raises per sender identity, dispatches them into the local
// dispatcher, and acks the structured outcome. A connection whose stream
// fails CRC is aborted outright — framing cannot resynchronize past a
// damaged length prefix, and the sender's retry machinery (same tokens,
// fresh connection) is the recovery path the dedup window makes safe.

// ReceiverConfig assembles a Receiver from one machine's substrates.
type ReceiverConfig struct {
	Stack      *netstack.Stack
	Sched      *sched.Scheduler
	Dispatcher *dispatch.Dispatcher
	// Port is the listening TCP port.
	Port uint16
	// EventPrefix is prepended to wire event names before dispatcher
	// lookup (the two-machine rigs namespace machine B's events "B:").
	EventPrefix string
}

// ReceiverStats counts the receiver's verdicts.
type ReceiverStats struct {
	// Conns counts accepted connections over the receiver's lifetime.
	Conns int64
	// Raises counts MsgRaise frames decoded (before dedup).
	Raises int64
	// Applied counts raises dispatched (Fresh tokens).
	Applied int64
	// Fired totals handlers fired by applied raises.
	Fired int64
	// Deduped counts duplicate tokens acked without re-dispatch.
	Deduped int64
	// Stale counts tokens below a window floor, refused.
	Stale int64
	// Unknown counts raises naming undefined events.
	Unknown int64
	// Heartbeats counts probes answered.
	Heartbeats int64
	// CorruptConns counts connections aborted on CRC damage.
	CorruptConns int64
}

// Receiver serves remote raises on one machine.
type Receiver struct {
	cfg      ReceiverConfig
	listener *netstack.TCPListener
	// windows holds one dedup window per sender identity. Keyed by the
	// wire Sender field, not by connection: a sender that redials after a
	// partition re-attaches to its existing window, which is what makes
	// retried tokens judgeable across connection epochs.
	windows map[string]*Window
	stats   ReceiverStats
}

// Serve starts listening and accepting. The accept loop and per-connection
// readers are strands on the machine's scheduler.
func Serve(cfg ReceiverConfig) (*Receiver, error) {
	l, err := cfg.Stack.ListenTCP(cfg.Port)
	if err != nil {
		return nil, err
	}
	r := &Receiver{cfg: cfg, listener: l, windows: make(map[string]*Window)}
	cfg.Sched.Spawn("remote-accept", 1, func(st *sched.Strand) sched.Status {
		for {
			c, ok := l.Accept()
			if !ok {
				break
			}
			r.stats.Conns++
			r.serveConn(c)
		}
		l.AwaitConn(st)
		return sched.Block
	})
	return r, nil
}

// Stats snapshots the receiver's counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// serveConn spawns the reader strand for one accepted connection.
func (r *Receiver) serveConn(c *netstack.TCPConn) {
	var buf []byte
	r.cfg.Sched.Spawn("remote-rx", 1, func(st *sched.Strand) sched.Status {
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
				break // incomplete frame: wait for more stream
			}
			if err != nil {
				// CRC damage or an unknown kind: the stream is
				// unrecoverable. Abort; the sender redials and retries
				// against the surviving dedup window.
				r.stats.CorruptConns++
				c.Abort()
				return sched.Done
			}
			buf = buf[n:]
			r.handle(c, &m)
		}
		if c.Closed() || c.EOF() {
			return sched.Done
		}
		c.AwaitData(st)
		return sched.Block
	})
}

// handle processes one decoded message and writes the reply, if any.
func (r *Receiver) handle(c *netstack.TCPConn, m *Message) {
	switch m.Kind {
	case MsgHeartbeat:
		r.stats.Heartbeats++
		r.reply(c, &Message{Kind: MsgHeartbeatAck, Token: m.Token})
	case MsgRaise:
		r.stats.Raises++
		ack := r.applyRaise(m)
		ack.Token = m.Token
		r.reply(c, ack)
	}
}

// applyRaise runs the dedup-then-dispatch pipeline for one raise.
func (r *Receiver) applyRaise(m *Message) *Message {
	w := r.windows[m.Sender]
	if w == nil {
		w = newWindow(DefaultWindowSize)
		r.windows[m.Sender] = w
	}
	switch w.Admit(m.Token) {
	case Duplicate:
		// Already applied: success without effects — the at-most-once
		// guarantee under retry.
		r.stats.Deduped++
		return &Message{Kind: MsgAck, Status: StatusDup}
	case Stale:
		// Below the window floor: possibly seen, never safe to re-apply.
		r.stats.Stale++
		return &Message{Kind: MsgAck, Status: StatusRejected}
	}

	ev, ok := r.cfg.Dispatcher.Lookup(r.cfg.EventPrefix + m.Event)
	if !ok {
		r.stats.Unknown++
		return &Message{Kind: MsgAck, Status: StatusUnknown}
	}
	rep, err := ev.RaiseReport(m.Args...)
	if err != nil {
		return &Message{Kind: MsgAck, Status: StatusRejected}
	}
	r.stats.Applied++
	r.stats.Fired += int64(rep.Fired)
	switch {
	case rep.Ambiguous:
		return &Message{Kind: MsgAck, Status: StatusAmbiguous, Fired: int64(rep.Fired)}
	case rep.Fired == 0 && !rep.UsedDefault && !rep.Async:
		return &Message{Kind: MsgAck, Status: StatusNoHandler}
	default:
		return &Message{Kind: MsgAck, Status: StatusApplied, Fired: int64(rep.Fired)}
	}
}

func (r *Receiver) reply(c *netstack.TCPConn, m *Message) {
	frame, err := appendMessage(nil, m)
	if err != nil {
		return // ack fields are always encodable; unreachable
	}
	_ = c.Send(frame)
}
