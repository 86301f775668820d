package netstack

import (
	"spin/internal/dispatch"
	"spin/internal/netwire"
	"spin/internal/rtti"
	"spin/internal/vtime"
)

// Dynamic ARP: address resolution as an extension module, in the same
// event-structured style as the rest of the stack. The ARP module installs
// a guarded handler on Ether.PacketArrived (ethertype 0x0806) and exports
// its own Arp.PacketArrived event; the stack's send path consults the
// learned table and, on a miss, queues the packet and broadcasts a
// request. Static entries from Config.ARP are honoured first, so existing
// configurations and the Table 2/Table 3 experiments are unaffected — the
// module only activates when Config.DynamicARP is set.

// ARPModule is the resolver's module descriptor.
var ARPModule = rtti.NewModule("Arp", "Arp")

// arp opcodes.
const (
	arpRequest = 1
	arpReply   = 2
)

// arpWireSize is the Ethernet payload size of an ARP packet.
const arpWireSize = 28

// arpResolver is the per-stack resolver state.
type arpResolver struct {
	s       *Stack
	learned map[string]string    // ip -> mac
	waiting map[string][]*Packet // ip -> queued packets
	// Requests and Replies count protocol traffic handled.
	Requests int64
	Replies  int64
}

// enableDynamicARP wires the resolver into the stack: an Ether handler
// guarded on the ARP ethertype, and the Arp.PacketArrived event it raises.
func (s *Stack) enableDynamicARP(prefix string) error {
	r := &arpResolver{s: s, learned: make(map[string]string),
		waiting: make(map[string][]*Packet)}
	sig := rtti.Sig(nil, rtti.Word, PacketType)
	ev, err := s.d.DefineEvent(prefix+"Arp.PacketArrived", sig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Arp.PacketArrived", Module: ARPModule, Sig: sig},
			Fn: func(clo any, args []any) any {
				r.input(args[1].(*Packet))
				return nil
			},
		}))
	if err != nil {
		return err
	}
	_, err = s.EtherArrived.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Arp.EtherInput", Module: ARPModule, Sig: sig},
		Fn: func(clo any, args []any) any {
			pkt := args[1].(*Packet)
			s.cpu.ChargeTo(vtime.AccountKernel, vtime.ProtoLayer)
			_, _ = ev.Raise2(pkt.etherTypeWord(), pkt)
			return nil
		},
	}, dispatch.WithGuard(s.HeaderGuard("Arp.IsARP", func(word uint64, pkt *Packet) bool {
		return word == uint64(netwire.TypeARP)
	})))
	if err != nil {
		return err
	}
	s.arpR = r
	s.arpEvent = ev
	return nil
}

// lookupMAC consults static entries first, then the learned table.
func (s *Stack) lookupMAC(ip string) (string, bool) {
	if mac, ok := s.arp[ip]; ok {
		return mac, true
	}
	if s.arpR != nil {
		mac, ok := s.arpR.learned[ip]
		return mac, ok
	}
	return "", false
}

// resolveAndQueue handles a send-path miss: queue the packet and broadcast
// a who-has request. Seq carries the opcode; SrcPort/DstPort are unused.
func (r *arpResolver) resolveAndQueue(pkt *Packet) error {
	ip := pkt.DstIP
	r.waiting[ip] = append(r.waiting[ip], pkt)
	if len(r.waiting[ip]) > 1 {
		return nil // request already outstanding
	}
	r.s.cpu.ChargeTo(vtime.AccountKernel, vtime.ProtoLayer)
	return r.s.sendFrame(r.packet(arpRequest, ip, ""), netwire.Broadcast, arpWireSize)
}

// packet builds an ARP packet from this host to (dstIP, dstMAC); dstMAC is
// empty in a request.
func (r *arpResolver) packet(op uint32, dstIP, dstMAC string) *Packet {
	pkt := r.s.newPacket()
	pkt.EtherType, pkt.Seq = netwire.TypeARP, op
	pkt.SrcIP, pkt.SrcMAC = r.s.ip, r.s.nic.Addr()
	pkt.DstIP, pkt.DstMAC = dstIP, dstMAC
	return pkt
}

// input processes one ARP packet at the resolver.
func (r *arpResolver) input(pkt *Packet) {
	switch pkt.Seq {
	case arpRequest:
		// Learn the asker opportunistically, then answer if the
		// question is for us.
		r.learn(pkt.SrcIP, pkt.SrcMAC)
		if pkt.DstIP != r.s.ip {
			return
		}
		r.Requests++
		r.s.cpu.ChargeTo(vtime.AccountKernel, vtime.ProtoLayer)
		_ = r.s.sendFrame(r.packet(arpReply, pkt.SrcIP, pkt.SrcMAC), pkt.SrcMAC, arpWireSize)
	case arpReply:
		r.Replies++
		r.learn(pkt.SrcIP, pkt.SrcMAC)
	}
}

// learn records a mapping and flushes any packets waiting on it.
func (r *arpResolver) learn(ip, mac string) {
	if ip == "" || mac == "" {
		return
	}
	r.learned[ip] = mac
	queued := r.waiting[ip]
	delete(r.waiting, ip)
	for _, pkt := range queued {
		_ = r.s.transmit(pkt, mac)
	}
}
