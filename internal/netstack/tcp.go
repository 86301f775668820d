package netstack

import (
	"fmt"

	"spin/internal/fifo"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/vtime"
)

// The TCP module. Segment demultiplexing is the intrinsic handler of
// Tcp.PacketArrived: connections are internal state, not separate event
// handlers (extensions that want per-port visibility install their own
// guarded handlers next to the intrinsic, as the OSF emulator's port
// watcher does for Table 3).
//
// The transport is deliberately simplified: there is no retransmission, no
// window management, and an unbounded send window; every data segment is
// acknowledged with a pure ACK, which keeps segment counts faithful to a
// real trace's data-plus-acks mix. The calibrated wire is lossless by
// default; under netwire fault injection the transport stays
// retransmission-free and instead enforces in-order delivery (out-of-order
// and duplicate segments are dropped and counted), leaving recovery to the
// layer above — internal/remote aborts the connection on deadline, redials,
// and relies on idempotent retry for exactly-once effects.
//
// Teardown discipline (the abrupt-peer-death audit): every terminal
// transition reaps the endpoint from the demux table and rouses parked
// strands, so a dead peer cannot strand connections, waiters, or timers.
// Segments that match no endpoint are answered with RST (except RSTs
// themselves and pure ACKs), an embryonic handshake that never completes is
// reaped by a one-shot timer, and Abort gives the layer above an immediate
// RST-and-reap teardown for deadline enforcement.

// TCP connection states.
type tcpConnState int

const (
	tcpSynSent tcpConnState = iota
	tcpSynRcvd
	tcpEstablished
	tcpClosed
)

func (s tcpConnState) String() string {
	switch s {
	case tcpSynSent:
		return "syn-sent"
	case tcpSynRcvd:
		return "syn-rcvd"
	case tcpEstablished:
		return "established"
	case tcpClosed:
		return "closed"
	}
	return "state(?)"
}

type connKey struct {
	remoteIP   string
	remotePort uint16
	localPort  uint16
}

// HandshakeTimeout bounds how long an embryonic connection (SYN sent or
// received, handshake incomplete) may sit in the demux table before being
// reaped. Generous against the calibrated network's ~475us round trip.
const HandshakeTimeout = vtime.Duration(10 * 1000 * 1000) // 10ms

type tcpState struct {
	listeners map[uint16]*TCPListener
	conns     map[connKey]*TCPConn
	nextPort  uint16
	// Resets counts segments that matched no connection or listener and
	// were answered with RST.
	Resets int64
	// OutOfOrder counts data/FIN segments dropped because their sequence
	// number did not match the expected in-order position (lost or
	// duplicated predecessors under fault injection).
	OutOfOrder int64
	// Reaped counts endpoints removed from the demux table.
	Reaped int64
}

// TCPStats is a snapshot of stack-wide TCP counters, for leak auditing and
// the remote drill's report.
type TCPStats struct {
	Conns      int
	Resets     int64
	OutOfOrder int64
	Reaped     int64
}

// TCPStats snapshots the TCP module's counters.
func (s *Stack) TCPStats() TCPStats {
	return TCPStats{
		Conns:      len(s.tcp.conns),
		Resets:     s.tcp.Resets,
		OutOfOrder: s.tcp.OutOfOrder,
		Reaped:     s.tcp.Reaped,
	}
}

// TCPConns reports the number of live endpoints in the demux table.
func (s *Stack) TCPConns() int { return len(s.tcp.conns) }

func (t *tcpState) init() {
	t.listeners = make(map[uint16]*TCPListener)
	t.conns = make(map[connKey]*TCPConn)
	t.nextPort = 32768
}

// TCPListener accepts inbound connections on a port.
type TCPListener struct {
	stack   *Stack
	port    uint16
	pending fifo.Queue[*TCPConn]
	waiter  *sched.Strand
}

// ListenTCP reserves a TCP port for inbound connections.
func (s *Stack) ListenTCP(port uint16) (*TCPListener, error) {
	if _, dup := s.tcp.listeners[port]; dup {
		return nil, fmt.Errorf("%w: tcp/%d", ErrPortInUse, port)
	}
	l := &TCPListener{stack: s, port: port}
	s.tcp.listeners[port] = l
	return l, nil
}

// Port returns the listening port.
func (l *TCPListener) Port() uint16 { return l.port }

// Accept pops an established inbound connection, reporting false when none
// is ready.
func (l *TCPListener) Accept() (*TCPConn, bool) { return l.pending.Pop() }

// Ready reports whether Accept would succeed.
func (l *TCPListener) Ready() bool { return l.pending.Len() > 0 }

// AwaitConn registers st for wakeup when a connection becomes acceptable.
func (l *TCPListener) AwaitConn(st *sched.Strand) { l.waiter = st }

// Close stops listening. Established connections are unaffected.
func (l *TCPListener) Close() {
	if l.stack.tcp.listeners[l.port] == l {
		delete(l.stack.tcp.listeners, l.port)
	}
}

// TCPConnType is the rtti type of connection endpoints, so events can
// carry a *TCPConn in a typed signature (the httpd's accept event).
var TCPConnType = rtti.NewRef("TCPConn", nil)

// TCPConn is one connection endpoint.
type TCPConn struct {
	stack      *Stack
	localPort  uint16
	remotePort uint16
	remoteIP   string
	state      tcpConnState
	// remoteWord is remotePort boxed once, for the packets sent to it (see
	// Packet.dstPortWord).
	remoteWord any

	seq, ack uint32

	recvQ      fifo.Queue[[]byte]
	recvWaiter *sched.Strand
	connWaiter *sched.Strand
	eof        bool

	// SegsIn, SegsOut, BytesIn, BytesOut count traffic.
	SegsIn, SegsOut   int64
	BytesIn, BytesOut int64
}

// RTTIType implements rtti.Described.
func (c *TCPConn) RTTIType() rtti.Type { return TCPConnType }

// DialTCP opens a connection to dstIP:dstPort. The SYN is sent
// immediately; the caller's strand should block until Established reports
// true (use AwaitEstablished).
func (s *Stack) DialTCP(dstIP string, dstPort uint16) (*TCPConn, error) {
	port := s.tcp.nextPort
	s.tcp.nextPort++
	c := &TCPConn{stack: s, localPort: port, remotePort: dstPort, remoteIP: dstIP,
		remoteWord: uint64(dstPort), state: tcpSynSent, seq: 1}
	s.tcp.conns[connKey{dstIP, dstPort, port}] = c
	s.armHandshakeTimer(c)
	if err := c.sendSeg(FlagSYN, nil); err != nil {
		return nil, err
	}
	return c, nil
}

// armHandshakeTimer schedules a one-shot reap of an embryonic endpoint
// whose handshake never completes — the peer died mid-open or a handshake
// segment was lost — so half-open connections cannot accumulate in the
// demux table. The timer is a no-op once the connection establishes (or is
// otherwise reaped). Without a simulator, timers are disabled and the
// audit relies on Abort alone.
func (s *Stack) armHandshakeTimer(c *TCPConn) {
	_ = s.sched.After(HandshakeTimeout, func() {
		if c.state == tcpSynSent || c.state == tcpSynRcvd {
			c.eof = true
			c.reap()
		}
	})
}

// Established reports whether the handshake has completed.
func (c *TCPConn) Established() bool { return c.state == tcpEstablished }

// Closed reports whether the connection has terminated.
func (c *TCPConn) Closed() bool { return c.state == tcpClosed }

// EOF reports whether the peer has finished sending.
func (c *TCPConn) EOF() bool { return c.eof && c.recvQ.Len() == 0 }

// AwaitEstablished registers st for wakeup when the handshake completes.
func (c *TCPConn) AwaitEstablished(st *sched.Strand) { c.connWaiter = st }

// LocalPort and RemotePort identify the endpoints.
func (c *TCPConn) LocalPort() uint16 { return c.localPort }

// Send transmits data, segmenting at the MSS. Each segment is charged one
// socket operation plus the TCP header build; the receiver acknowledges
// each segment with a pure ACK.
func (c *TCPConn) Send(data []byte) error {
	if c.state != tcpEstablished {
		return fmt.Errorf("%w (%v)", ErrNotStarted, c.state)
	}
	for len(data) > 0 {
		n := len(data)
		if n > MSS {
			n = MSS
		}
		seg := data[:n]
		data = data[n:]
		c.stack.cpu.Charge(vtime.SocketOp)
		if err := c.sendSeg(FlagPSH|FlagACK, seg); err != nil {
			return err
		}
		c.seq += uint32(n)
		c.BytesOut += int64(n)
	}
	return nil
}

// Readable reports whether Recv would succeed or EOF has been reached.
func (c *TCPConn) Readable() bool { return c.recvQ.Len() > 0 || c.eof }

// Recv pops the next received segment payload.
func (c *TCPConn) Recv() ([]byte, bool) { return c.recvQ.Pop() }

// AwaitData registers st for wakeup on the next delivery or EOF.
func (c *TCPConn) AwaitData(st *sched.Strand) { c.recvWaiter = st }

// Close sends FIN and marks the connection closed locally. If the peer has
// already finished sending, both directions are shut and the endpoint is
// reaped; otherwise it stays in the demux table until the peer's FIN (or
// RST) arrives.
func (c *TCPConn) Close() error {
	if c.state == tcpClosed {
		return nil
	}
	err := c.sendSeg(FlagFIN|FlagACK, nil)
	c.state = tcpClosed
	if c.eof {
		c.reap()
	}
	return err
}

// Abort tears the endpoint down immediately: an RST is sent (best effort)
// and the connection is reaped without waiting for the peer. This is the
// teardown the remote layer uses when a deadline expires on an unhealthy
// connection.
func (c *TCPConn) Abort() {
	if c.stack.tcp.conns[connKey{c.remoteIP, c.remotePort, c.localPort}] != c {
		return // already reaped
	}
	if c.state == tcpEstablished || c.state == tcpSynRcvd {
		_ = c.sendSeg(FlagRST, nil)
	}
	c.eof = true
	c.reap()
}

// reap removes the endpoint from the demux table and rouses parked
// waiters, so strands blocked on establishment or data observe the
// terminal state instead of sleeping forever.
func (c *TCPConn) reap() {
	c.state = tcpClosed
	key := connKey{c.remoteIP, c.remotePort, c.localPort}
	if c.stack.tcp.conns[key] == c {
		delete(c.stack.tcp.conns, key)
		c.stack.tcp.Reaped++
	}
	c.stack.wake(&c.connWaiter)
	c.stack.wake(&c.recvWaiter)
}

// sendSeg builds and transmits one segment.
func (c *TCPConn) sendSeg(flags uint8, payload []byte) error {
	c.stack.cpu.Charge(vtime.ProtoLayer) // TCP header build
	c.SegsOut++
	pkt := c.stack.newPacket()
	pkt.DstIP, pkt.Proto = c.remoteIP, ProtoTCP
	pkt.SrcPort, pkt.DstPort = c.localPort, c.remotePort
	pkt.Seq, pkt.Ack, pkt.Flags = c.seq, c.ack, flags
	pkt.Payload = payload
	pkt.dstPortWord = c.remoteWord
	return c.stack.sendIP(pkt)
}

// wake rouses a parked strand pointer, clearing it.
func (s *Stack) wake(w **sched.Strand) {
	if *w != nil {
		st := *w
		*w = nil
		s.sched.Wakeup(st)
	}
}

// tcpInput is the Tcp.PacketArrived intrinsic handler: segment
// demultiplexing and the connection state machine.
func (s *Stack) tcpInput(pkt *Packet) {
	s.cpu.ChargeTo(vtime.AccountKernel, vtime.SocketOp)
	key := connKey{pkt.SrcIP, pkt.SrcPort, pkt.DstPort}
	c, ok := s.tcp.conns[key]
	if !ok {
		// New inbound connection?
		if pkt.Flags&FlagSYN != 0 && pkt.Flags&FlagACK == 0 {
			l, listening := s.tcp.listeners[pkt.DstPort]
			if !listening {
				// Connection refused.
				s.tcp.Resets++
				_ = s.sendRST(pkt)
				return
			}
			c = &TCPConn{stack: s, localPort: pkt.DstPort,
				remotePort: pkt.SrcPort, remoteIP: pkt.SrcIP,
				remoteWord: uint64(pkt.SrcPort),
				state:      tcpSynRcvd, seq: 1, ack: pkt.Seq + 1}
			s.tcp.conns[key] = c
			s.armHandshakeTimer(c)
			c.SegsIn++
			_ = c.sendSeg(FlagSYN|FlagACK, nil)
			c.seq++
			_ = l // accepted on the completing ACK below
			return
		}
		// Answer with RST so the peer's endpoint tears down promptly
		// instead of waiting out its deadline — except for RSTs themselves
		// (no RST-for-RST storms) and pure ACKs (the final ACK of a close
		// races the reap harmlessly).
		if pkt.Flags&FlagRST == 0 && (len(pkt.Payload) > 0 || pkt.Flags&(FlagSYN|FlagFIN) != 0) {
			s.tcp.Resets++
			_ = s.sendRST(pkt)
		}
		return
	}

	c.SegsIn++
	switch {
	case pkt.Flags&FlagRST != 0:
		// Peer aborted (or refused): terminal, no reply.
		c.eof = true
		c.reap()
	case c.state == tcpSynSent && pkt.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK:
		// Active open completes: ACK the SYN-ACK.
		c.state = tcpEstablished
		c.ack = pkt.Seq + 1
		c.seq++
		_ = c.sendSeg(FlagACK, nil)
		s.wake(&c.connWaiter)

	case c.state == tcpSynRcvd && pkt.Flags&FlagACK != 0 && pkt.Flags&FlagSYN == 0:
		// Passive open completes: hand to the listener.
		c.state = tcpEstablished
		if l, ok := s.tcp.listeners[c.localPort]; ok {
			l.pending.Push(c)
			s.wake(&l.waiter)
		}
		// A completing ACK may piggyback data.
		if len(pkt.Payload) > 0 {
			c.deliverData(pkt)
		}

	case pkt.Flags&FlagFIN != 0:
		if pkt.Seq != c.ack {
			// A lost predecessor (hole) or a duplicated FIN: drop it and
			// re-assert the expected position.
			s.tcp.OutOfOrder++
			_ = c.sendSeg(FlagACK, nil)
			return
		}
		c.eof = true
		c.ack = pkt.Seq + 1
		_ = c.sendSeg(FlagACK, nil)
		s.wake(&c.recvWaiter)
		if c.state == tcpClosed {
			c.reap() // both FINs seen: full teardown
		}

	case len(pkt.Payload) > 0 && c.state == tcpEstablished:
		c.deliverData(pkt)
		_ = c.sendSeg(FlagACK, nil)

	case len(pkt.Payload) > 0 && c.state == tcpClosed:
		// Closed on this side while the peer is still sending: nobody
		// will read the data, but the expected position has to follow it,
		// or the peer's FIN would never match and the endpoint never be
		// reaped.
		if pkt.Seq == c.ack {
			c.ack += uint32(len(pkt.Payload))
		} else {
			s.tcp.OutOfOrder++
		}

	default:
		// Pure ACK: nothing to do with an unbounded window.
	}
}

// sendRST answers a segment that matched no endpoint, echoing its
// identifiers back so the sender can match the reset to its connection.
func (s *Stack) sendRST(pkt *Packet) error {
	s.cpu.ChargeTo(vtime.AccountKernel, vtime.ProtoLayer)
	rst := s.newPacket()
	rst.DstIP, rst.Proto = pkt.SrcIP, ProtoTCP
	rst.SrcPort, rst.DstPort = pkt.DstPort, pkt.SrcPort
	rst.Seq, rst.Ack, rst.Flags = pkt.Ack, pkt.Seq, FlagRST
	return s.sendIP(rst)
}

// deliverData queues an in-order data segment; a segment whose sequence
// number is not the expected next byte (a hole from a dropped predecessor,
// or a duplicate) is discarded and counted — there is no reassembly queue.
func (c *TCPConn) deliverData(pkt *Packet) {
	if pkt.Seq != c.ack {
		c.stack.tcp.OutOfOrder++
		return
	}
	c.stack.cpu.ChargeTo(vtime.AccountKernel, vtime.SocketOp)
	c.recvQ.Push(pkt.Payload)
	c.ack = pkt.Seq + uint32(len(pkt.Payload))
	c.BytesIn += int64(len(pkt.Payload))
	c.stack.wake(&c.recvWaiter)
}
