// Package netstack is the event-structured TCP/IP stack substrate,
// modelled on SPIN's extensible protocol architecture
// ([Fiuczynski & Bershad 96], paper §3.2): each protocol layer is a module
// that announces packet arrival through an event, and the next layer up is
// just another handler with a guard discriminating on a header field.
//
// The receive path for a frame is therefore a chain of event raises:
//
//	NIC interrupt -> Ether.PacketArrived(ethertype, pkt)
//	              -> Ip.PacketArrived(protocol, pkt)     [guard: type == IP]
//	              -> Udp.PacketArrived(dstport, pkt)     [guard: proto == UDP]
//	              -> socket handler                      [guard: port == bound]
//
// Guards "filter packets from the network by discriminating on fields in
// the protocol header (e.g., guards may discriminate on the UDP or TCP
// port destination field)" — exactly the structure Table 2 measures.
package netstack

import (
	"errors"
	"fmt"

	"spin/internal/codegen"
	"spin/internal/dispatch"
	"spin/internal/netwire"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/vtime"
)

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoIGMP = 2
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// TCP header flags.
const (
	FlagSYN uint8 = 1 << iota
	FlagACK
	FlagFIN
	FlagPSH
	FlagRST
)

// Header sizes for wire accounting.
const (
	ipHeader  = 20
	udpHeader = 8
	tcpHeader = 20
	// MSS is the TCP maximum segment size on Ethernet.
	MSS = netwire.MTU - ipHeader - tcpHeader
)

// Module descriptors: each protocol layer is its own module and holds
// authority over its PacketArrived event.
var (
	EtherModule = rtti.NewModule("Ether", "Ether")
	IPModule    = rtti.NewModule("Ip", "Ip")
	UDPModule   = rtti.NewModule("Udp", "Udp")
	TCPModule   = rtti.NewModule("Tcp", "Tcp")
)

// PacketType is the rtti type of parsed packets.
var PacketType = rtti.NewRef("Packet", nil)

// Packet is a parsed packet view, shared by all layers. (A production
// stack would reparse headers per layer; the simulation charges the layer
// costs explicitly and keeps one struct.)
//
// A packet is allocated once, by its sender, and never pooled or reused by
// the stack: whoever receives one — a handler, a socket's user — may keep
// it.
type Packet struct {
	EtherType uint16
	SrcMAC    string
	DstMAC    string

	SrcIP, DstIP string
	Proto        uint8

	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8

	// Payload aliases the buffer the sender passed to Send; see DESIGN.md,
	// "frame path ownership".
	Payload []byte

	// wire is the frame that carries the packet: sending a packet
	// allocates the packet and nothing else.
	wire netwire.Frame
	// dstPortWord, when set by the sending endpoint, is DstPort boxed as
	// the word argument of the transport events. Endpoints box it once,
	// not once per packet.
	dstPortWord any
}

// RTTIType implements rtti.Described.
func (p *Packet) RTTIType() rtti.Type { return PacketType }

// The discriminating words the layer events take, boxed once.
var (
	wordTypeIP  any = uint64(netwire.TypeIP)
	wordTypeARP any = uint64(netwire.TypeARP)
)

// etherTypeWord is the Ether.PacketArrived word for the packet.
func (p *Packet) etherTypeWord() any {
	switch p.EtherType {
	case netwire.TypeIP:
		return wordTypeIP
	case netwire.TypeARP:
		return wordTypeARP
	}
	return uint64(p.EtherType)
}

// portWord is the Udp/Tcp.PacketArrived word for the packet: the word its
// sender boxed if it still matches DstPort, a fresh box otherwise (packets
// built outside an endpoint, or rewritten on the way).
func (p *Packet) portWord() any {
	if w, ok := p.dstPortWord.(uint64); ok && w == uint64(p.DstPort) {
		return p.dstPortWord
	}
	return uint64(p.DstPort)
}

// wireSize reports the Ethernet payload size of the packet.
func (p *Packet) wireSize() int {
	switch p.Proto {
	case ProtoUDP:
		return len(p.Payload) + udpHeader + ipHeader
	case ProtoTCP:
		return len(p.Payload) + tcpHeader + ipHeader
	default:
		return len(p.Payload) + ipHeader
	}
}

// Errors.
var (
	ErrPortInUse  = errors.New("netstack: port already bound")
	ErrNoRoute    = errors.New("netstack: no ARP entry for destination")
	ErrClosed     = errors.New("netstack: connection closed")
	ErrNotStarted = errors.New("netstack: connection not established")
)

// Config assembles a stack from kernel substrates.
type Config struct {
	Dispatcher *dispatch.Dispatcher
	CPU        *vtime.CPU
	Sched      *sched.Scheduler
	NIC        *netwire.NIC
	// IP is this host's address.
	IP string
	// ARP statically maps peer IP addresses to link addresses.
	ARP map[string]string
	// Prefix namespaces the stack's event names (e.g. "B:" for the
	// second machine of a two-machine simulation, whose dispatcher is
	// distinct anyway; the prefix matters only for diagnostics).
	Prefix string
	// InlinePortGuards makes BindUDP install its port guard as an
	// inlinable ArgEq predicate instead of an out-of-line header-parsing
	// procedure. Predicate guards cost less per evaluation, and a run of
	// them is dispatched through the code generator's guard index (§3.2
	// future work; codegen/tree.go): natively one hash of the port
	// whatever the number of bound sockets, and in the calibrated model
	// one inline-guard charge under codegen.Options.EnableDecisionTree.
	InlinePortGuards bool
	// DynamicARP loads the ARP resolver module: link addresses are
	// learned from request/reply traffic over the broadcast segment, and
	// the static ARP table becomes optional (it still takes precedence
	// when present). See arp.go.
	DynamicARP bool
}

// Stack is one host's protocol stack.
type Stack struct {
	d            *dispatch.Dispatcher
	cpu          *vtime.CPU
	sched        *sched.Scheduler
	nic          *netwire.NIC
	ip           string
	arp          map[string]string
	inlineGuards bool

	// The layer events (Table 3's protocol rows).
	EtherArrived *dispatch.Event
	IPArrived    *dispatch.Event
	UDPArrived   *dispatch.Event
	TCPArrived   *dispatch.Event

	udpSocks map[uint16]*UDPSocket
	tcp      tcpState
	arpR     *arpResolver
	arpEvent *dispatch.Event

	// EtherFrames, IPPackets count traffic through each layer's
	// intrinsic handler. UDPDrops counts datagrams for unbound ports
	// (the UDP event's default handler).
	EtherFrames int64
	IPPackets   int64
	UDPDrops    int64
}

// New builds the stack and wires the receive chain. Each layer's
// PacketArrived event is defined with the layer's own intrinsic handler
// (bookkeeping); the layer above installs a guarded handler, mirroring how
// SPIN composed its protocol graph from extensions.
func New(cfg Config) (*Stack, error) {
	s := &Stack{
		d: cfg.Dispatcher, cpu: cfg.CPU, sched: cfg.Sched, nic: cfg.NIC,
		ip: cfg.IP, arp: cfg.ARP, inlineGuards: cfg.InlinePortGuards,
		udpSocks: make(map[uint16]*UDPSocket),
	}
	s.tcp.init()
	sig := rtti.Sig(nil, rtti.Word, PacketType)
	p := cfg.Prefix

	var err error
	s.EtherArrived, err = cfg.Dispatcher.DefineEvent(p+"Ether.PacketArrived", sig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Ether.PacketArrived", Module: EtherModule, Sig: sig},
			Fn:   func(clo any, args []any) any { s.EtherFrames++; return nil },
		}))
	if err != nil {
		return nil, err
	}
	s.IPArrived, err = cfg.Dispatcher.DefineEvent(p+"Ip.PacketArrived", sig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Ip.PacketArrived", Module: IPModule, Sig: sig},
			Fn:   func(clo any, args []any) any { s.IPPackets++; return nil },
		}))
	if err != nil {
		return nil, err
	}
	// Udp.PacketArrived has no intrinsic handler: bound sockets are its
	// only handlers, so the drop-counting default handler below runs
	// exactly when a datagram reaches an unbound port.
	s.UDPArrived, err = cfg.Dispatcher.DefineEvent(p+"Udp.PacketArrived", sig,
		dispatch.WithOwner(UDPModule))
	if err != nil {
		return nil, err
	}
	// Datagrams that reach UDP but match no socket are dropped; the
	// event's default handler counts them (it runs only when no socket
	// handler fired — §2.3).
	err = s.UDPArrived.SetDefaultHandler(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Udp.Drop", Module: UDPModule, Sig: sig},
		Fn:   func(clo any, args []any) any { s.UDPDrops++; return nil },
	})
	if err != nil {
		return nil, err
	}
	s.TCPArrived, err = cfg.Dispatcher.DefineEvent(p+"Tcp.PacketArrived", sig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Tcp.PacketArrived", Module: TCPModule, Sig: sig},
			Fn: func(clo any, args []any) any {
				s.tcpInput(args[1].(*Packet))
				return nil
			},
		}))
	if err != nil {
		return nil, err
	}

	// The IP module's handler on Ether, guarded on the ethertype field.
	_, err = s.EtherArrived.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Ip.EtherInput", Module: IPModule, Sig: sig},
		Fn: func(clo any, args []any) any {
			pkt := args[1].(*Packet)
			s.cpu.ChargeTo(vtime.AccountKernel, vtime.ProtoLayer)
			_, _ = s.IPArrived.Raise2(uint64(pkt.Proto), pkt) // protocol numbers box without allocating
			return nil
		},
	}, dispatch.WithGuard(s.HeaderGuard("Ip.IsIP", func(word uint64, pkt *Packet) bool {
		return word == uint64(netwire.TypeIP)
	})))
	if err != nil {
		return nil, err
	}

	// UDP's and TCP's handlers on IP, guarded on the protocol field.
	_, err = s.IPArrived.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Udp.IpInput", Module: UDPModule, Sig: sig},
		Fn: func(clo any, args []any) any {
			pkt := args[1].(*Packet)
			s.cpu.ChargeTo(vtime.AccountKernel, vtime.ProtoLayer)
			_, _ = s.UDPArrived.Raise2(pkt.portWord(), pkt)
			return nil
		},
	}, dispatch.WithGuard(s.HeaderGuard("Udp.IsUDP", func(word uint64, pkt *Packet) bool {
		return word == ProtoUDP
	})))
	if err != nil {
		return nil, err
	}
	_, err = s.IPArrived.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Tcp.IpInput", Module: TCPModule, Sig: sig},
		Fn: func(clo any, args []any) any {
			pkt := args[1].(*Packet)
			s.cpu.ChargeTo(vtime.AccountKernel, vtime.ProtoLayer)
			_, _ = s.TCPArrived.Raise2(pkt.portWord(), pkt)
			return nil
		},
	}, dispatch.WithGuard(s.HeaderGuard("Tcp.IsTCP", func(word uint64, pkt *Packet) bool {
		return word == ProtoTCP
	})))
	if err != nil {
		return nil, err
	}

	// The NIC receive interrupt: field the interrupt, parse the frame,
	// and announce it.
	if cfg.DynamicARP {
		if err := s.enableDynamicARP(p); err != nil {
			return nil, err
		}
	}

	cfg.NIC.SetBatchReceiver(s.rxTrain)
	return s, nil
}

// rxTrain is the NIC's receive interrupt. Frames landing at the same
// virtual instant (back-to-back on the wire) arrive as one RX train: each
// frame's interrupt and Ethernet header parse are charged as the train
// lands, in wire order, and then each frame is announced with its own
// Raise2.
func (s *Stack) rxTrain(fs []*netwire.Frame) {
	for range fs {
		s.cpu.ChargeTo(vtime.AccountKernel, vtime.Interrupt)
		s.cpu.ChargeTo(vtime.AccountKernel, vtime.ProtoLayer) // Ethernet header parse
	}
	for _, f := range fs {
		pkt, ok := f.Payload.(*Packet)
		if !ok {
			pkt = &Packet{EtherType: f.EtherType, SrcMAC: f.Src, DstMAC: f.Dst}
		}
		// Ether's intrinsic handler always fires, so the raise has no
		// error an interrupt could act on.
		_, _ = s.EtherArrived.Raise2(pkt.etherTypeWord(), pkt)
	}
}

// IP returns the host address.
func (s *Stack) IP() string { return s.ip }

// HeaderGuard builds a FUNCTIONAL out-of-line guard over (word, packet)
// that charges the paper-calibrated header-discrimination cost. Guards of
// this shape are what Table 2 installs in quantity.
func (s *Stack) HeaderGuard(name string, pred func(word uint64, pkt *Packet) bool) dispatch.Guard {
	return dispatch.Guard{
		Proc: &rtti.Proc{Name: name, Module: UDPModule, Functional: true,
			Sig: rtti.Sig(rtti.Bool, rtti.Word, PacketType)},
		Fn: func(clo any, args []any) bool {
			s.cpu.Charge(vtime.NetGuardEval)
			return pred(args[0].(uint64), args[1].(*Packet))
		},
	}
}

// PortGuard matches the destination port. With InlinePortGuards it is an
// inlinable ArgEq predicate, which the guard index dispatches on; otherwise
// an out-of-line header-parsing guard charged at the paper's calibrated
// cost, scanned linearly.
func (s *Stack) PortGuard(name string, port uint16) dispatch.Guard {
	if s.inlineGuards {
		return dispatch.Guard{Pred: codegen.ArgEq(0, uint64(port))}
	}
	want := uint64(port)
	return s.HeaderGuard(name, func(word uint64, pkt *Packet) bool { return word == want })
}

// sendIP transmits pkt to its destination IP: builds the IP and Ethernet
// headers (one ProtoLayer each) and hands the frame to the NIC. With the
// dynamic ARP resolver loaded, an unresolved destination queues the packet
// behind a broadcast who-has request instead of failing.
func (s *Stack) sendIP(pkt *Packet) error {
	pkt.SrcIP = s.ip
	mac, ok := s.lookupMAC(pkt.DstIP)
	if !ok {
		if s.arpR != nil {
			s.cpu.ChargeTo(vtime.AccountKernel, vtime.ProtoLayer) // IP header build
			return s.arpR.resolveAndQueue(pkt)
		}
		return fmt.Errorf("%w: %s", ErrNoRoute, pkt.DstIP)
	}
	s.cpu.ChargeTo(vtime.AccountKernel, vtime.ProtoLayer) // IP header build
	return s.transmit(pkt, mac)
}

// transmit frames an IP packet for the resolved link address and hands it
// to the NIC (the Ethernet header build).
func (s *Stack) transmit(pkt *Packet, mac string) error {
	pkt.SrcMAC = s.nic.Addr()
	pkt.DstMAC = mac
	pkt.EtherType = netwire.TypeIP
	s.cpu.ChargeTo(vtime.AccountKernel, vtime.ProtoLayer)
	return s.sendFrame(pkt, mac, pkt.wireSize())
}

// sendFrame puts pkt on the wire to the link address dst, in the frame the
// packet embeds.
func (s *Stack) sendFrame(pkt *Packet, dst string, size int) error {
	pkt.wire = netwire.Frame{Dst: dst, EtherType: pkt.EtherType, Size: size, Payload: pkt}
	return s.nic.Send(&pkt.wire)
}
