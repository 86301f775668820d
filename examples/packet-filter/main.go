// Packet filter: the paper's §3.2 networking experiment in miniature. Two
// simulated machines on a 10 Mb/s Ethernet exchange 8-byte UDP datagrams;
// guards on Udp.PacketArrived discriminate on the destination port. The
// example prints the roundtrip latency as inactive guarded endpoints are
// added — the shape of Table 2 — and demonstrates an inline predicate
// guard beating an out-of-line one.
//
//	go run ./examples/packet-filter
package main

import (
	"fmt"
	"log"

	"spin/internal/bench"
	"spin/internal/dispatch"
	"spin/internal/kernel"
	"spin/internal/netstack"
	"spin/internal/rtti"
	"spin/internal/scenario"
	"spin/internal/sched"
	"spin/internal/vtime"

	"spin"
)

func main() {
	fmt.Println("-- Table 2 in miniature: UDP roundtrip vs. installed guards --")
	for _, guards := range []int{1, 5, 10, 50} {
		rt, err := bench.Table2Roundtrip(guards)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d guards: %6.1f us\n", guards, vtime.InMicros(rt))
	}

	fmt.Println("\n-- port demultiplexing with guards --")
	rig, err := scenario.Pair(kernel.Config{Name: "a", Metered: true}, kernel.Config{Name: "b"})
	if err != nil {
		log.Fatal(err)
	}
	a, b := rig.Nodes[0], rig.Nodes[1]
	sa, sb := a.Stack, b.Stack

	// Three services on B, each an event handler guarded on its port.
	// Binding a socket IS installing a guarded handler on the packet
	// event — that is the paper's protocol architecture.
	dns, _ := sb.BindUDP(53)
	ntp, _ := sb.BindUDP(123)
	echo, _ := sb.BindUDP(7)

	// An extension can also watch packets directly with an inline
	// predicate guard: here, a monitor counting privileged-port traffic
	// without a single indirect call in its guard path.
	privileged := 0
	_, err = sb.UDPArrived.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Monitor.Privileged", Module: rtti.NewModule("Monitor"),
			Sig: rtti.Sig(nil, rtti.Word, netstack.PacketType)},
		Fn: func(any, []any) any { privileged++; return nil },
	}, dispatch.WithGuard(dispatch.Guard{Pred: spin.PredArgLt(0, 1024)}))
	if err != nil {
		log.Fatal(err)
	}

	src, _ := sa.BindUDP(5000)
	for _, dst := range []uint16{53, 7, 123, 53, 9999, 2049} {
		_ = src.Send("10.0.0.2", dst, []byte("datagram"))
	}
	a.Sim.Run(0)

	fmt.Printf("  dns received:  %d\n", dns.Received)
	fmt.Printf("  ntp received:  %d\n", ntp.Received)
	fmt.Printf("  echo received: %d\n", echo.Received)
	fmt.Printf("  dropped (no endpoint): %d\n", sb.UDPDrops)
	fmt.Printf("  privileged-port monitor: %d\n", privileged)

	// An echo strand shows the full application loop.
	fmt.Println("\n-- echo service --")
	b.Sched.Spawn("echo", 1, func(st *sched.Strand) sched.Status {
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
	start := a.Clock.Now()
	_ = src.Send("10.0.0.2", 7, []byte("payload!"))
	a.Sim.Run(0)
	for {
		pkt, ok := src.Recv()
		if !ok {
			break
		}
		fmt.Printf("  echoed %q within %.1f us\n", pkt.Payload,
			vtime.InMicros(a.Clock.Now().Sub(start)))
	}
}
