package netstack

import (
	"bytes"
	"errors"
	"testing"

	"spin/internal/kernel"
	"spin/internal/netwire"
	"spin/internal/sched"
	"spin/internal/vtime"
)

// rig is a pair of machines on one 10Mb/s segment, the paper's §3.2 setup.
type rig struct {
	a, b   *kernel.Machine
	sa, sb *Stack
	link   *netwire.Link
}

func twoMachines(t *testing.T) *rig {
	t.Helper()
	a, err := kernel.Boot(kernel.Config{Name: "a", Metered: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := kernel.Boot(kernel.Config{Name: "b", ShareWith: a})
	if err != nil {
		t.Fatal(err)
	}
	link := netwire.NewLink(a.Sim, 0, 0)
	nicA, err := link.Attach("mac-a")
	if err != nil {
		t.Fatal(err)
	}
	nicB, err := link.Attach("mac-b")
	if err != nil {
		t.Fatal(err)
	}
	arp := map[string]string{"10.0.0.1": "mac-a", "10.0.0.2": "mac-b"}
	sa, err := New(Config{Dispatcher: a.Dispatcher, CPU: a.CPU, Sched: a.Sched,
		NIC: nicA, IP: "10.0.0.1", ARP: arp})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := New(Config{Dispatcher: b.Dispatcher, CPU: b.CPU, Sched: b.Sched,
		NIC: nicB, IP: "10.0.0.2", ARP: arp, Prefix: "B:"})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{a: a, b: b, sa: sa, sb: sb, link: link}
}

func (r *rig) run() { r.a.Sim.Run(200000) }

func TestUDPDatagramDelivery(t *testing.T) {
	r := twoMachines(t)
	src, err := r.sa.BindUDP(5000)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := r.sb.BindUDP(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Send("10.0.0.2", 7, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	r.run()
	pkt, ok := dst.Recv()
	if !ok {
		t.Fatal("no datagram delivered")
	}
	if string(pkt.Payload) != "ping" || pkt.SrcIP != "10.0.0.1" || pkt.SrcPort != 5000 {
		t.Fatalf("pkt = %+v", pkt)
	}
	if dst.Received != 1 || src.Sent != 1 {
		t.Fatal("counters wrong")
	}
	if _, ok := dst.Recv(); ok {
		t.Fatal("phantom second datagram")
	}
}

func TestUDPUnboundPortDropsViaDefaultHandler(t *testing.T) {
	r := twoMachines(t)
	src, _ := r.sa.BindUDP(5000)
	_ = src.Send("10.0.0.2", 9999, []byte("x"))
	r.run()
	if r.sb.UDPDrops != 1 {
		t.Fatalf("drops = %d", r.sb.UDPDrops)
	}
	// The layer counters still saw the packet.
	if r.sb.EtherFrames != 1 || r.sb.IPPackets != 1 {
		t.Fatalf("ether=%d ip=%d", r.sb.EtherFrames, r.sb.IPPackets)
	}
}

func TestUDPPortGuardSelectsSocket(t *testing.T) {
	r := twoMachines(t)
	src, _ := r.sa.BindUDP(5000)
	s7, _ := r.sb.BindUDP(7)
	s9, _ := r.sb.BindUDP(9)
	_ = src.Send("10.0.0.2", 9, []byte("for-9"))
	r.run()
	if s7.Pending() != 0 || s9.Pending() != 1 {
		t.Fatalf("s7=%d s9=%d", s7.Pending(), s9.Pending())
	}
}

func TestUDPBindConflictAndClose(t *testing.T) {
	r := twoMachines(t)
	sock, err := r.sa.BindUDP(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.sa.BindUDP(7); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("err = %v", err)
	}
	if err := sock.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sock.Close(); err == nil {
		t.Fatal("double close accepted")
	}
	// Port is free again; traffic to it now drops.
	if _, err := r.sa.BindUDP(7); err != nil {
		t.Fatal(err)
	}
}

func TestUDPEchoRoundtripLatency(t *testing.T) {
	// The Table 2 baseline: an 8-byte UDP echo between two machines on a
	// 10Mb/s Ethernet, one guard installed, should cost on the order of
	// the paper's 475us.
	r := twoMachines(t)
	client, _ := r.sa.BindUDP(5000)
	server, _ := r.sb.BindUDP(7)

	serverStrand := r.b.Sched.Spawn("echo-server", 1, func(st *sched.Strand) sched.Status {
		pkt, ok := server.Recv()
		if !ok {
			server.AwaitPacket(st)
			return sched.Block
		}
		_ = server.Send(pkt.SrcIP, pkt.SrcPort, pkt.Payload)
		server.AwaitPacket(st)
		return sched.Block
	})
	_ = serverStrand

	var rtt vtime.Duration
	done := false
	start := r.a.Clock.Now()
	clientStrand := r.a.Sched.Spawn("client", 1, func(st *sched.Strand) sched.Status {
		if pkt, ok := client.Recv(); ok {
			if string(pkt.Payload) != "12345678" {
				t.Errorf("echo payload = %q", pkt.Payload)
			}
			rtt = r.a.Clock.Now().Sub(start)
			done = true
			return sched.Done
		}
		client.AwaitPacket(st)
		return sched.Block
	})
	_ = clientStrand
	_ = client.Send("10.0.0.2", 7, []byte("12345678"))
	r.run()
	if !done {
		t.Fatal("echo never completed")
	}
	us := vtime.InMicros(rtt)
	if us < 350 || us > 600 {
		t.Fatalf("roundtrip = %.0fus, want in the region of the paper's 475us", us)
	}
	t.Logf("UDP 8-byte echo roundtrip: %.1fus (paper: 475us)", us)
}

func TestTCPHandshakeAndData(t *testing.T) {
	r := twoMachines(t)
	l, err := r.sb.ListenTCP(6000)
	if err != nil {
		t.Fatal(err)
	}
	var serverConn *TCPConn
	var got bytes.Buffer
	r.b.Sched.Spawn("server", 1, func(st *sched.Strand) sched.Status {
		if serverConn == nil {
			c, ok := l.Accept()
			if !ok {
				l.AwaitConn(st)
				return sched.Block
			}
			serverConn = c
		}
		for {
			d, ok := serverConn.Recv()
			if !ok {
				break
			}
			got.Write(d)
		}
		if serverConn.EOF() {
			return sched.Done
		}
		serverConn.AwaitData(st)
		return sched.Block
	})

	conn, err := r.sa.DialTCP("10.0.0.2", 6000)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 4000) // 3 segments at MSS 1460
	sent := false
	r.a.Sched.Spawn("client", 1, func(st *sched.Strand) sched.Status {
		if !conn.Established() {
			conn.AwaitEstablished(st)
			return sched.Block
		}
		if !sent {
			sent = true
			if err := conn.Send(payload); err != nil {
				t.Errorf("send: %v", err)
			}
			_ = conn.Close()
		}
		return sched.Done
	})
	r.run()
	if !conn.Established() && !conn.Closed() {
		t.Fatal("handshake never completed")
	}
	if got.Len() != len(payload) {
		t.Fatalf("server got %d bytes, want %d", got.Len(), len(payload))
	}
	if serverConn.SegsIn < 4 { // 3 data + FIN (+ handshake ACK)
		t.Fatalf("SegsIn = %d", serverConn.SegsIn)
	}
	if conn.SegsIn < 4 { // SYN-ACK + 3 acks (+ FIN ack)
		t.Fatalf("client SegsIn = %d", conn.SegsIn)
	}
	if serverConn.BytesIn != int64(len(payload)) || conn.BytesOut != int64(len(payload)) {
		t.Fatal("byte counters wrong")
	}
}

func TestTCPSendBeforeEstablishedFails(t *testing.T) {
	r := twoMachines(t)
	conn, err := r.sa.DialTCP("10.0.0.2", 6000) // nobody listening
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("x")); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPConnectionRefusedCountsReset(t *testing.T) {
	r := twoMachines(t)
	_, _ = r.sa.DialTCP("10.0.0.2", 4242) // no listener on B
	r.run()
	if r.sb.tcp.Resets != 1 {
		t.Fatalf("resets = %d", r.sb.tcp.Resets)
	}
}

func TestTCPListenConflictAndClose(t *testing.T) {
	r := twoMachines(t)
	l, err := r.sb.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.sb.ListenTCP(80); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("err = %v", err)
	}
	l.Close()
	if _, err := r.sb.ListenTCP(80); err != nil {
		t.Fatal(err)
	}
	if l.Port() != 80 {
		t.Fatal("port accessor broken")
	}
}

func TestEventStatsTrackPacketCounts(t *testing.T) {
	// Table 3's counting infrastructure: event stats must reflect the
	// raise counts along the receive chain.
	r := twoMachines(t)
	src, _ := r.sa.BindUDP(5000)
	_, _ = r.sb.BindUDP(7)
	for i := 0; i < 10; i++ {
		_ = src.Send("10.0.0.2", 7, []byte("x"))
	}
	r.run()
	for _, tc := range []struct {
		name string
		want int64
	}{
		{"B:Ether.PacketArrived", 10},
		{"B:Ip.PacketArrived", 10},
		{"B:Udp.PacketArrived", 10},
		{"B:Tcp.PacketArrived", 0},
	} {
		ev, ok := r.b.Dispatcher.Lookup(tc.name)
		if !ok {
			t.Fatalf("event %s missing", tc.name)
		}
		if got := ev.Stats().Raised; got != tc.want {
			t.Errorf("%s raised = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestNoRoute(t *testing.T) {
	r := twoMachines(t)
	sock, _ := r.sa.BindUDP(5000)
	if err := sock.Send("10.9.9.9", 7, []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
}

func TestInjectEtherNonIP(t *testing.T) {
	r := twoMachines(t)
	r.sa.InjectEther(&Packet{EtherType: netwire.TypeARP})
	r.run()
	if r.sa.EtherFrames != 1 || r.sa.IPPackets != 0 {
		t.Fatalf("ether=%d ip=%d", r.sa.EtherFrames, r.sa.IPPackets)
	}
}

func TestPacketWireSize(t *testing.T) {
	udp := &Packet{Proto: ProtoUDP, Payload: make([]byte, 8)}
	if udp.wireSize() != 8+8+20 {
		t.Fatalf("udp wire size = %d", udp.wireSize())
	}
	tcp := &Packet{Proto: ProtoTCP, Payload: make([]byte, 100)}
	if tcp.wireSize() != 100+20+20 {
		t.Fatalf("tcp wire size = %d", tcp.wireSize())
	}
	raw := &Packet{Proto: ProtoICMP, Payload: make([]byte, 10)}
	if raw.wireSize() != 30 {
		t.Fatalf("raw wire size = %d", raw.wireSize())
	}
	if udp.RTTIType() != PacketType {
		t.Fatal("RTTIType wrong")
	}
}

func TestSmallFrameDoesNotOvertakeLargeOne(t *testing.T) {
	// The wire serializes transmissions: a FIN sent right after three
	// MSS-sized data segments must arrive after them, or the receiver
	// would see EOF before the data.
	r := twoMachines(t)
	src, _ := r.sa.BindUDP(5000)
	dst, _ := r.sb.BindUDP(7)
	_ = src.Send("10.0.0.2", 7, make([]byte, 1400)) // big, slow to serialize
	_ = src.Send("10.0.0.2", 7, []byte("s"))        // small, fast
	r.run()
	first, _ := dst.Recv()
	second, _ := dst.Recv()
	if first == nil || second == nil {
		t.Fatal("datagrams lost")
	}
	if len(first.Payload) != 1400 || len(second.Payload) != 1 {
		t.Fatalf("order inverted: %d then %d", len(first.Payload), len(second.Payload))
	}
}

// InjectEther delivers a raw (non-IP) frame into the receive path, as the
// workload driver does for ARP traffic.
func (s *Stack) InjectEther(pkt *Packet) {
	s.cpu.ChargeTo(vtime.AccountKernel, vtime.Interrupt)
	s.cpu.ChargeTo(vtime.AccountKernel, vtime.ProtoLayer)
	_, _ = s.EtherArrived.Raise2(pkt.etherTypeWord(), pkt)
}
