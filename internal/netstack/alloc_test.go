package netstack

import (
	"runtime/debug"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/netwire"
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
// and the same back — allocates the two packets and nothing per step. The
// budget leaves room for the runtime, not for a per-frame allocation: the
// roundtrip is two frames and was 31 allocations.
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
	if allocs > 6 {
		t.Fatalf("UDP echo roundtrip allocates %.1f times, budget 6", allocs)
	}
}

// One data segment on an established connection and its ACK: two packets.
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
	if allocs > 4 {
		t.Fatalf("data segment + ACK allocates %.1f times, budget 4", allocs)
	}
}
