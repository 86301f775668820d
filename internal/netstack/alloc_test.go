package netstack

import (
	"fmt"
	"runtime/debug"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/netwire"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/vtime"
)

// nativeHost is one unmetered host: the simulator drives only the wire and
// the timers, and every raise runs on the native executors (the
// benchmark's rig, benchmark/rig.go).
type nativeHost struct {
	sched *sched.Scheduler
	stack *Stack
}

// nativePair puts two unmetered hosts, 10.0.0.1 and 10.0.0.2, on one link.
func nativePair(t *testing.T) (*vtime.Simulator, nativeHost, nativeHost) {
	t.Helper()
	sim := vtime.NewSimulator(&vtime.Clock{})
	link := netwire.NewLink(sim, 0, 0)
	arp := map[string]string{"10.0.0.1": "mac-a", "10.0.0.2": "mac-b"}
	boot := func(ip, prefix string) nativeHost {
		nic, err := link.Attach(arp[ip])
		if err != nil {
			t.Fatal(err)
		}
		d := dispatch.New(dispatch.WithSimulator(sim))
		sc, err := sched.New(d, nil, sim)
		if err != nil {
			t.Fatal(err)
		}
		st, err := New(Config{Dispatcher: d, Sched: sc, NIC: nic, IP: ip, ARP: arp, Prefix: prefix})
		if err != nil {
			t.Fatal(err)
		}
		return nativeHost{sched: sc, stack: st}
	}
	return sim, boot("10.0.0.1", ""), boot("10.0.0.2", "B:")
}

// skipBudgetUnderRace skips an allocation budget in a -race binary, where
// sync.Pool drops a quarter of what it is given, so the pooled argument
// frames of Raise2 allocate at random.
func skipBudgetUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation budgets do not hold under the race detector")
			}
		}
	}
}

// One UDP echo roundtrip — send, wire, three raises, socket, strand wakeup,
// and the same back — allocates nothing per step: its two packets are
// carved from the stacks' slabs, one allocation per 37 packets. The budget
// of one leaves room for the runtime, not for a per-frame allocation: the
// roundtrip was 31 allocations, then 2 (a packet per frame).
func TestUDPEchoAllocBudget(t *testing.T) {
	sim, a, b := nativePair(t)
	echo, err := b.stack.BindUDP(7)
	if err != nil {
		t.Fatal(err)
	}
	b.sched.Spawn("echo", 0, func(st *sched.Strand) sched.Status {
		for {
			pkt, ok := echo.Recv()
			if !ok {
				break
			}
			_ = echo.Send(pkt.SrcIP, pkt.SrcPort, pkt.Payload)
		}
		echo.AwaitPacket(st)
		return sched.Block
	})
	sock, err := a.stack.BindUDP(5000)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("12345678")
	echoed := 0
	roundtrip := func() {
		_ = sock.Send("10.0.0.2", 7, payload)
		sim.Run(0)
		if _, ok := sock.Recv(); ok {
			echoed++
		}
	}
	roundtrip() // grows the heap, the trains and the queues
	allocs := testing.AllocsPerRun(200, roundtrip)
	if echoed != 202 {
		t.Fatalf("%d of 202 datagrams echoed", echoed)
	}
	skipBudgetUnderRace(t)
	if allocs > 1 {
		t.Fatalf("UDP echo roundtrip allocates %.2f times, budget 1", allocs)
	}
}

// One data segment on an established connection and its ACK: two packets,
// carved from the stacks' slabs, so under one allocation per segment.
func TestTCPSegmentAllocBudget(t *testing.T) {
	sim, a, b := nativePair(t)
	l, err := b.stack.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	client, err := a.stack.DialTCP("10.0.0.2", 80)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(vtime.Time(HandshakeTimeout / 2)) // the handshake timers stay pending
	server, ok := l.Accept()
	if !ok || !client.Established() {
		t.Fatal("handshake did not complete")
	}
	payload := make([]byte, 512)
	received := 0
	segment := func() {
		_ = client.Send(payload)
		sim.RunUntil(sim.Clock().Now().Add(vtime.Micros(2000)))
		if _, ok := server.Recv(); ok {
			received++
		}
	}
	segment()
	allocs := testing.AllocsPerRun(200, segment)
	if received != 202 || client.SegsIn != 1+202 { // the SYN-ACK, then one ACK per segment
		t.Fatalf("%d of 202 segments received, %d segments back", received, client.SegsIn)
	}
	skipBudgetUnderRace(t)
	if allocs > 1 {
		t.Fatalf("data segment + ACK allocates %.2f times, budget 1", allocs)
	}
}

// packetView is what a receiver reads of a packet: its headers and a copy
// of its payload.
type packetView struct {
	etherType        uint16
	srcMAC, dstMAC   string
	srcIP, dstIP     string
	proto            uint8
	srcPort, dstPort uint16
	payload          string
}

func viewOf(p *Packet) packetView {
	return packetView{p.EtherType, p.SrcMAC, p.DstMAC, p.SrcIP, p.DstIP,
		p.Proto, p.SrcPort, p.DstPort, string(p.Payload)}
}

// Packets are carved from a per-stack slab, and a slot is never handed out
// twice: a receiver may keep a packet for good. Here more than two slabs'
// worth are kept, half from a socket's Recv and half by a handler on
// Udp.PacketArrived, while both stacks go on carving packets for echoes;
// every kept packet must stay distinct and read as it did on arrival.
func TestRetainedPacketsStayIntact(t *testing.T) {
	sim, a, b := nativePair(t)
	sock, err := b.stack.BindUDP(7)
	if err != nil {
		t.Fatal(err)
	}
	var kept []*Packet
	sig := rtti.Sig(nil, rtti.Word, PacketType)
	_, err = b.stack.UDPArrived.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Keeper", Module: rtti.NewModule("Keeper"), Sig: sig},
		Fn: func(clo any, args []any) any {
			kept = append(kept, args[1].(*Packet))
			return nil
		},
	}, dispatch.WithGuard(b.stack.PortGuard("Keeper.Port8", 8)))
	if err != nil {
		t.Fatal(err)
	}
	echo, err := b.stack.BindUDP(9)
	if err != nil {
		t.Fatal(err)
	}
	src, err := a.stack.BindUDP(5000)
	if err != nil {
		t.Fatal(err)
	}
	// Each send gets its own buffer: a sender must not reuse one it sent.
	send := func(port uint16, i int) {
		if err := src.Send("10.0.0.2", port, []byte(fmt.Sprintf("port %d datagram %03d", port, i))); err != nil {
			t.Fatal(err)
		}
	}
	// traffic carves packets on both stacks: a datagram to the echo port
	// and its echo back.
	traffic := func() {
		send(9, 0)
		sim.Run(0)
		pkt, ok := echo.Recv()
		if !ok {
			t.Fatal("echo datagram lost")
		}
		_ = echo.Send(pkt.SrcIP, pkt.SrcPort, pkt.Payload)
		sim.Run(0)
		if _, ok := src.Recv(); !ok {
			t.Fatal("echo reply lost")
		}
	}
	const n = slabLen + 8 // per port: more than two slabs in all
	for i := 0; i < n; i++ {
		send(7, i)
		send(8, i)
		sim.Run(0)
		pkt, ok := sock.Recv()
		if !ok {
			t.Fatalf("datagram %d to port 7 lost", i)
		}
		kept = append(kept, pkt)
		traffic()
	}
	if len(kept) != 2*n {
		t.Fatalf("kept %d packets, want %d", len(kept), 2*n)
	}
	seen := make(map[*Packet]bool, len(kept))
	want := make([]packetView, len(kept))
	for i, p := range kept {
		if seen[p] {
			t.Fatalf("packet %d handed out twice", i)
		}
		seen[p] = true
		want[i] = viewOf(p)
		if p.SrcIP != "10.0.0.1" || p.SrcPort != 5000 || (p.DstPort != 7 && p.DstPort != 8) ||
			want[i].payload != fmt.Sprintf("port %d datagram %03d", p.DstPort, i/2) {
			t.Fatalf("kept packet %d arrived as %+v", i, want[i])
		}
	}
	for i := 0; i < 3*slabLen; i++ {
		traffic()
	}
	for i, p := range kept {
		if got := viewOf(p); got != want[i] {
			t.Fatalf("kept packet %d changed under later traffic:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}
