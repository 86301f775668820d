package netstack

import (
	"fmt"

	"spin/internal/dispatch"
	"spin/internal/fifo"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/vtime"
)

// UDPSocket is a bound UDP endpoint. Binding installs a guarded handler on
// Udp.PacketArrived — the socket is, literally, an event handler whose
// guard matches its port, which is how SPIN's application-specific
// networking attached endpoints to the stack.
type UDPSocket struct {
	stack   *Stack
	port    uint16
	binding *dispatch.Binding
	queue   fifo.Queue[*Packet]
	waiter  *sched.Strand
	// dstPort and dstWord are the destination port last sent to and its
	// boxed word (see Packet.dstPortWord); a socket mostly talks to one
	// peer.
	dstPort uint16
	dstWord any

	// Received and Sent count datagrams through the socket.
	Received int64
	Sent     int64
}

// BindUDP binds port and installs the socket's handler. The guard is a
// HeaderGuard on the destination port.
func (s *Stack) BindUDP(port uint16) (*UDPSocket, error) {
	if _, dup := s.udpSocks[port]; dup {
		return nil, fmt.Errorf("%w: udp/%d", ErrPortInUse, port)
	}
	sock := &UDPSocket{stack: s, port: port}
	sig := rtti.Sig(nil, rtti.Word, PacketType)
	// Only the out-of-line guard is named: PortGuard drops the name under
	// InlinePortGuards, so it is not formatted there.
	guardName := ""
	if !s.inlineGuards {
		guardName = fmt.Sprintf("Udp.Port%dGuard", port)
	}
	b, err := s.UDPArrived.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: fmt.Sprintf("Udp.Socket%d", port), Module: UDPModule, Sig: sig},
		Fn: func(clo any, args []any) any {
			sock.deliver(args[1].(*Packet))
			return nil
		},
	}, dispatch.WithGuard(s.PortGuard(guardName, port)))
	if err != nil {
		return nil, err
	}
	sock.binding = b
	s.udpSocks[port] = sock
	return sock, nil
}

// Port returns the bound port.
func (u *UDPSocket) Port() uint16 { return u.port }

// deliver runs in the receive chain: enqueue and wake any waiting strand.
func (u *UDPSocket) deliver(pkt *Packet) {
	u.stack.cpu.ChargeTo(vtime.AccountKernel, vtime.SocketOp)
	u.queue.Push(pkt)
	u.Received++
	if w := u.waiter; w != nil {
		u.waiter = nil
		u.stack.sched.Wakeup(w)
	}
}

// Send transmits a datagram.
func (u *UDPSocket) Send(dstIP string, dstPort uint16, payload []byte) error {
	u.stack.cpu.Charge(vtime.SocketOp)
	u.stack.cpu.Charge(vtime.ProtoLayer) // UDP header build
	u.Sent++
	if u.dstWord == nil || u.dstPort != dstPort {
		u.dstPort, u.dstWord = dstPort, uint64(dstPort)
	}
	pkt := u.stack.newPacket()
	pkt.DstIP, pkt.Proto = dstIP, ProtoUDP
	pkt.SrcPort, pkt.DstPort = u.port, dstPort
	pkt.Payload = payload
	pkt.dstPortWord = u.dstWord
	return u.stack.sendIP(pkt)
}

// Recv pops the next datagram, reporting false when the queue is empty.
func (u *UDPSocket) Recv() (*Packet, bool) { return u.queue.Pop() }

// AwaitPacket registers st to be woken on the next delivery; the strand
// body returns sched.Block after calling it. The usual receive loop is
//
//	pkt, ok := sock.Recv()
//	if !ok {
//	        sock.AwaitPacket(st)
//	        return sched.Block
//	}
func (u *UDPSocket) AwaitPacket(st *sched.Strand) { u.waiter = st }

// Pending reports the queue length.
func (u *UDPSocket) Pending() int { return u.queue.Len() }

// Close unbinds the port and removes the socket's handler.
func (u *UDPSocket) Close() error {
	if u.stack.udpSocks[u.port] != u {
		return fmt.Errorf("netstack: udp/%d not bound to this socket", u.port)
	}
	delete(u.stack.udpSocks, u.port)
	return u.stack.UDPArrived.Uninstall(u.binding)
}
