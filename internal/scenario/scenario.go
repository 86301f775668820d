// Package scenario is the one place machines are put on a wire. Every
// workload the paper evaluates — Table 2's UDP echo, the §3.2 web server,
// Table 3's document preview — runs on the same arrangement: a small
// kernel per machine, the machines on one simulated Ethernet, services
// bound in as extensions (§1.1). Wire builds that arrangement; the
// builders on top of it (Webserver, RemoteRig) add the extension
// populations that more than one tool shares. The wall-clock overload
// drills have no machine to wire, and share their load generator here
// (Offer).
package scenario

import (
	"fmt"

	"spin/internal/kernel"
	"spin/internal/netstack"
	"spin/internal/netwire"
	"spin/internal/vtime"
)

// Host describes one machine on the wire with the configuration structs
// the machine is built from anyway. Wire fills in what only it can know:
// Kernel.ShareWith on every host after the first, and the dispatcher,
// CPU, scheduler, NIC and ARP map of Net.
type Host struct {
	Kernel kernel.Config
	Net    netstack.Config
	// MAC is the host's link address.
	MAC string
}

// Node is one booted host: its machine, its NIC and its protocol stack.
type Node struct {
	*kernel.Machine
	NIC   *netwire.NIC
	Stack *netstack.Stack
}

// Rig is a set of machines on one link, in the order Wire was given them.
type Rig struct {
	Link  *netwire.Link
	Nodes []*Node
}

// Wire boots the hosts on one link. The first host owns the virtual clock
// and the simulator (it must be Metered); the rest share them. Every
// stack gets the same static ARP map of all the hosts.
func Wire(hosts ...Host) (*Rig, error) {
	r := &Rig{Nodes: make([]*Node, len(hosts))}
	arp := make(map[string]string, len(hosts))
	for i, h := range hosts {
		if i > 0 {
			h.Kernel.ShareWith = r.Nodes[0].Machine
		}
		m, err := kernel.Boot(h.Kernel)
		if err != nil {
			return nil, err
		}
		if m.Sim == nil {
			return nil, fmt.Errorf("scenario: host %q has no simulator: the first host must be Metered", h.Kernel.Name)
		}
		r.Nodes[i] = &Node{Machine: m}
		arp[h.Net.IP] = h.MAC
	}
	r.Link = netwire.NewLink(r.Nodes[0].Sim, 0, 0)
	for i, h := range hosts {
		var err error
		if r.Nodes[i].NIC, err = r.Link.Attach(h.MAC); err != nil {
			return nil, err
		}
	}
	for i, h := range hosts {
		n := r.Nodes[i]
		var err error
		cfg := h.Net
		cfg.Dispatcher, cfg.CPU, cfg.Sched, cfg.NIC, cfg.ARP = n.Dispatcher, n.CPU, n.Sched, n.NIC, arp
		if n.Stack, err = netstack.New(cfg); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Pair wires the two-machine arrangement most scenarios use: a at
// 10.0.0.1 (mac-a), b at 10.0.0.2 (mac-b) with its events under "B:".
func Pair(a, b kernel.Config) (*Rig, error) {
	return Wire(
		Host{Kernel: a, Net: netstack.Config{IP: "10.0.0.1"}, MAC: "mac-a"},
		Host{Kernel: b, Net: netstack.Config{IP: "10.0.0.2", Prefix: "B:"}, MAC: "mac-b"},
	)
}

// runFor advances the shared simulation by d.
func (r *Rig) runFor(d vtime.Duration) {
	m := r.Nodes[0]
	m.Sim.RunUntil(m.Clock.Now().Add(d))
}
