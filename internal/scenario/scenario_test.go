package scenario

import (
	"reflect"
	"testing"

	"spin/internal/kernel"
	"spin/internal/netstack"
)

// Three hosts on one wire share one clock and simulator, and every stack
// resolves every other host: a datagram from the first reaches the third.
func TestWireHostsShareTimelineAndARP(t *testing.T) {
	host := func(name, ip, mac string, metered bool) Host {
		return Host{Kernel: kernel.Config{Name: name, Metered: metered},
			Net: netstack.Config{IP: ip, Prefix: name + ":"}, MAC: mac}
	}
	rig, err := Wire(host("c", "10.2.0.1", "mac-c", true),
		host("p0", "10.2.0.2", "mac-p0", false), host("p1", "10.2.0.3", "mac-p1", false))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range rig.Nodes {
		if n.Sim != rig.Nodes[0].Sim || n.Clock != rig.Nodes[0].Clock {
			t.Errorf("host %d runs on its own timeline", i)
		}
		if n.CPU == rig.Nodes[(i+1)%3].CPU {
			t.Errorf("host %d shares a CPU meter with its neighbour", i)
		}
	}
	dst, err := rig.Nodes[2].Stack.BindUDP(7)
	if err != nil {
		t.Fatal(err)
	}
	src, err := rig.Nodes[0].Stack.BindUDP(5000)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Send("10.2.0.3", 7, []byte("datagram")); err != nil {
		t.Fatal(err)
	}
	before := rig.Nodes[0].Clock.Now()
	rig.Nodes[0].Sim.Run(0)
	if dst.Received != 1 {
		t.Errorf("third host received %d datagrams, want 1", dst.Received)
	}
	if rig.Nodes[2].Clock.Now() == before {
		t.Error("delivery took no virtual time")
	}
}

func TestWireRejectsMisconfiguredHosts(t *testing.T) {
	h := func(metered bool, mac string) Host {
		return Host{Kernel: kernel.Config{Name: "h", Metered: metered},
			Net: netstack.Config{IP: "10.0.0.1"}, MAC: mac}
	}
	if _, err := Wire(h(false, "mac-a")); err == nil {
		t.Error("Wire accepted an unmetered first host, which has no simulator to put the link on")
	}
	if _, err := Wire(h(true, "mac-a"), h(false, "mac-a")); err == nil {
		t.Error("Wire accepted two hosts with one link address")
	}
}

// The remote drill is virtual time end to end: one seed, one report; and
// under any seed every raise the receiver accepted fired exactly once. A
// raise the sender gave up on may still have been applied (seed 7 has
// one), so the sender's successes bound the receiver's count from below.
func TestRunDrillDeterministicAndExactlyOnce(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		a, err := RunDrill(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunDrill(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: two runs differ:\n%+v\n%+v", seed, a, b)
		}
		if !a.ExactlyOnce() {
			t.Errorf("seed %d: exactly-once violated: delivered %d + deduped %d, timed out %d, applied %d, fired %d",
				seed, a.LossyDelivered, a.LossyDeduped, a.LossyTimedOut, a.LossyApplied, a.LossyFired)
		}
		if a.BreakerTrips == 0 || a.HealedDelivered == 0 {
			t.Errorf("seed %d: partition phase tripped %d times, delivered %d after the heal",
				seed, a.BreakerTrips, a.HealedDelivered)
		}
	}
}
