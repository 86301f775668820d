package netstack

import (
	"errors"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/kernel"
	"spin/internal/netwire"
	"spin/internal/vtime"
)

// arpRig builds machines with EMPTY static ARP tables and the dynamic
// resolver loaded.
func arpRig(t *testing.T, n int) (*kernel.Machine, []*Stack, *netwire.Link) {
	t.Helper()
	first, err := kernel.Boot(kernel.Config{Name: "m0", Metered: true})
	if err != nil {
		t.Fatal(err)
	}
	link := netwire.NewLink(first.Sim, 0, 0)
	machines := []*kernel.Machine{first}
	for i := 1; i < n; i++ {
		m, err := kernel.Boot(kernel.Config{Name: "m", ShareWith: first})
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
	}
	var stacks []*Stack
	for i, m := range machines {
		nic, err := link.Attach(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		prefix := ""
		if i > 0 {
			prefix = string(rune('A'+i)) + ":"
		}
		st, err := New(Config{Dispatcher: m.Dispatcher, CPU: m.CPU, Sched: m.Sched,
			NIC: nic, IP: ipOf(i), DynamicARP: true, Prefix: prefix})
		if err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, st)
	}
	return first, stacks, link
}

func ipOf(i int) string { return "10.3.0." + string(rune('1'+i)) }

func TestDynamicARPResolvesAndDelivers(t *testing.T) {
	m, stacks, _ := arpRig(t, 2)
	src, _ := stacks[0].BindUDP(5000)
	dst, _ := stacks[1].BindUDP(7)
	// No static ARP entries anywhere: the first send triggers
	// resolution, then the queued datagram flows.
	if err := src.Send(ipOf(1), 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	m.Sim.Run(0)
	pkt, ok := dst.Recv()
	if !ok || string(pkt.Payload) != "hello" {
		t.Fatalf("datagram lost: %v", pkt)
	}
	// The responder answered one request; the sender consumed one reply.
	reqs, _ := stacks[1].ARPStats()
	_, replies := stacks[0].ARPStats()
	if reqs != 1 || replies != 1 {
		t.Fatalf("requests=%d replies=%d", reqs, replies)
	}
	// The reverse path was learned opportunistically from the request:
	// no second resolution round.
	if err := dst.Send(ipOf(0), 5000, []byte("back")); err != nil {
		t.Fatal(err)
	}
	m.Sim.Run(0)
	if _, ok := src.Recv(); !ok {
		t.Fatal("reverse datagram lost")
	}
	reqs0, _ := stacks[0].ARPStats()
	if reqs0 != 0 {
		t.Fatalf("reverse path needed a request: %d", reqs0)
	}
}

func TestDynamicARPQueuesBurst(t *testing.T) {
	m, stacks, _ := arpRig(t, 2)
	src, _ := stacks[0].BindUDP(5000)
	dst, _ := stacks[1].BindUDP(7)
	// Three sends before any resolution completes: one request on the
	// wire, all three delivered after the reply.
	for i := 0; i < 3; i++ {
		if err := src.Send(ipOf(1), 7, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m.Sim.Run(0)
	if dst.Pending() != 3 {
		t.Fatalf("delivered %d of 3", dst.Pending())
	}
	reqs, _ := stacks[1].ARPStats()
	if reqs != 1 {
		t.Fatalf("requests answered = %d, want 1 (burst must coalesce)", reqs)
	}
	// Order preserved through the queue.
	for i := 0; i < 3; i++ {
		pkt, _ := dst.Recv()
		if pkt.Payload[0] != byte(i) {
			t.Fatalf("reordered: got %d at %d", pkt.Payload[0], i)
		}
	}
}

func TestDynamicARPThirdPartyIgnoresForeignRequests(t *testing.T) {
	m, stacks, _ := arpRig(t, 3)
	src, _ := stacks[0].BindUDP(5000)
	_, _ = stacks[1].BindUDP(7)
	// Machine 0 resolves machine 1; machine 2 sees the broadcast but
	// must not answer. It learns the asker, though.
	if err := src.Send(ipOf(1), 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	m.Sim.Run(0)
	reqs2, _ := stacks[2].ARPStats()
	if reqs2 != 0 {
		t.Fatalf("bystander answered %d requests", reqs2)
	}
	// The bystander can now reach machine 0 without resolving.
	by, _ := stacks[2].BindUDP(9000)
	dst0, _ := stacks[0].BindUDP(9001)
	if err := by.Send(ipOf(0), 9001, []byte("learned")); err != nil {
		t.Fatal(err)
	}
	m.Sim.Run(0)
	if _, ok := dst0.Recv(); !ok {
		t.Fatal("opportunistically learned entry unusable")
	}
}

// A broadcast reaches its peers in attach order. It used to range over the
// link's NIC map, so the three bystanders took the ARP request in a random
// order and the same run ended at one of several instants (5.206682,
// 5.214014 or 5.278882 ms over 40 runs).
func TestBroadcastDeliveryDeterministic(t *testing.T) {
	var first vtime.Time
	for i := 0; i < 40; i++ {
		m, stacks, _ := arpRig(t, 4)
		src, _ := stacks[0].BindUDP(5000)
		dst, _ := stacks[1].BindUDP(7)
		if err := src.Send(ipOf(1), 7, []byte("x")); err != nil {
			t.Fatal(err)
		}
		m.Sim.Run(0)
		if dst.Pending() != 1 {
			t.Fatalf("run %d: datagram lost", i)
		}
		end := m.Sim.Clock().Now()
		if i == 0 {
			first = end
		} else if end != first {
			t.Fatalf("run %d ended at %v, run 0 at %v", i, end, first)
		}
	}
}

func TestDynamicARPUnresolvableHostQueuesForever(t *testing.T) {
	m, stacks, link := arpRig(t, 1)
	src, _ := stacks[0].BindUDP(5000)
	// Nobody owns 10.3.0.9: the packet queues, the request broadcast is
	// dropped (sole NIC on the wire), nothing crashes.
	if err := src.Send("10.3.0.9", 7, []byte("void")); err != nil {
		t.Fatal(err)
	}
	m.Sim.Run(0)
	if link.Dropped == 0 {
		t.Fatal("lonely broadcast should be counted dropped")
	}
}

func TestStaticEntriesTakePrecedence(t *testing.T) {
	// With a static table AND dynamic ARP, the static entry wins and no
	// request goes out.
	first, err := kernel.Boot(kernel.Config{Name: "m0", Metered: true})
	if err != nil {
		t.Fatal(err)
	}
	second, err := kernel.Boot(kernel.Config{Name: "m1", ShareWith: first})
	if err != nil {
		t.Fatal(err)
	}
	link := netwire.NewLink(first.Sim, 0, 0)
	nicA, _ := link.Attach("a")
	nicB, _ := link.Attach("b")
	arp := map[string]string{"10.3.0.1": "a", "10.3.0.2": "b"}
	sa, _ := New(Config{Dispatcher: first.Dispatcher, CPU: first.CPU,
		Sched: first.Sched, NIC: nicA, IP: "10.3.0.1", ARP: arp, DynamicARP: true})
	sb, _ := New(Config{Dispatcher: second.Dispatcher, CPU: second.CPU,
		Sched: second.Sched, NIC: nicB, IP: "10.3.0.2", ARP: arp, DynamicARP: true,
		Prefix: "B:"})
	src, _ := sa.BindUDP(5000)
	dst, _ := sb.BindUDP(7)
	_ = src.Send("10.3.0.2", 7, []byte("x"))
	first.Sim.Run(0)
	if dst.Pending() != 1 {
		t.Fatal("datagram lost")
	}
	reqs, _ := sb.ARPStats()
	if reqs != 0 {
		t.Fatalf("request sent despite static entry: %d", reqs)
	}
}

func TestWithoutDynamicARPMissStillFails(t *testing.T) {
	r := twoMachines(t)
	sock, _ := r.sa.BindUDP(5000)
	if err := sock.Send("10.9.9.9", 7, []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
	if r.sa.ArpArrived() != nil {
		t.Fatal("resolver loaded without DynamicARP")
	}
}

func TestArpEventCensus(t *testing.T) {
	m, stacks, _ := arpRig(t, 2)
	src, _ := stacks[0].BindUDP(5000)
	_, _ = stacks[1].BindUDP(7)
	_ = src.Send(ipOf(1), 7, []byte("x"))
	m.Sim.Run(0)
	// The responder's Arp.PacketArrived saw the request; the sender's
	// saw the reply.
	if got := stacks[1].ArpArrived().Stats().Raised; got != 1 {
		t.Fatalf("responder arp raises = %d", got)
	}
	if got := stacks[0].ArpArrived().Stats().Raised; got != 1 {
		t.Fatalf("sender arp raises = %d", got)
	}
}

// ArpArrived is the resolver's event; nil when DynamicARP is off.
// (Exposed for tests and workload census inspection.)
func (s *Stack) ArpArrived() *dispatch.Event {
	if s.arpR == nil {
		return nil
	}
	return s.arpEvent
}

// ARPStats reports (requests answered, replies consumed) by the resolver.
func (s *Stack) ARPStats() (requests, replies int64) {
	if s.arpR == nil {
		return 0, 0
	}
	return s.arpR.Requests, s.arpR.Replies
}
