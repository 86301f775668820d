package main

import (
	"fmt"
	"math/rand"
	"strings"

	"spin/internal/dispatch"
	"spin/internal/fs"
	"spin/internal/httpd"
	"spin/internal/netstack"
	"spin/internal/netwire"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/vtime"
)

// benchModule owns every handler the benchmark installs: the web server's
// extension population, the UDP echo server, and the trace probes.
var benchModule = rtti.NewModule("Benchmark")

const (
	clientIP, serverIP   = "10.0.0.2", "10.0.0.1"
	clientMAC, serverMAC = "mac-client", "mac-server"
)

// machine is one simulated host, assembled from the public constructors
// with no CPU meter. kernel.Boot always attaches the Alpha meter, and a
// metered raise always takes the interpreter; here virtual time drives only
// the wire and the timers, and every raise runs on the native executor
// tiers.
type machine struct {
	d     *dispatch.Dispatcher
	sched *sched.Scheduler
	stack *netstack.Stack
}

// rig is the two-machine set-up of the simulated workloads: one simulator
// and one link at their defaults, a client and a server machine.
type rig struct {
	sim            *vtime.Simulator
	link           *netwire.Link
	client, server machine
}

func newRig(stackCfg netstack.Config) (*rig, error) {
	sim := vtime.NewSimulator(&vtime.Clock{})
	r := &rig{sim: sim, link: netwire.NewLink(sim, 0, 0)}
	arp := map[string]string{serverIP: serverMAC, clientIP: clientMAC}
	boot := func(m *machine, ip, mac, prefix string) error {
		nic, err := r.link.Attach(mac)
		if err != nil {
			return err
		}
		m.d = dispatch.New(dispatch.WithSimulator(sim))
		if m.sched, err = sched.New(m.d, nil, sim); err != nil {
			return err
		}
		cfg := stackCfg
		cfg.Dispatcher, cfg.Sched, cfg.NIC = m.d, m.sched, nic
		cfg.IP, cfg.ARP, cfg.Prefix = ip, arp, prefix
		m.stack, err = netstack.New(cfg)
		return err
	}
	if err := boot(&r.server, serverIP, serverMAC, ""); err != nil {
		return nil, err
	}
	if err := boot(&r.client, clientIP, clientMAC, "B:"); err != nil {
		return nil, err
	}
	return r, nil
}

// machines lists both hosts, server first.
func (r *rig) machines() []*machine { return []*machine{&r.server, &r.client} }

// The document tree of the HTTP workloads: numDocs small documents for
// http_session and one large one for http_large.
const (
	numDocs      = 64
	minDocBytes  = 64
	maxDocBytes  = 1400
	largeDocPath = "/large.bin"
	largeDocSize = 16 << 10
)

func docPath(i int) string { return fmt.Sprintf("/docs/d%02d.html", i) }

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	_, _ = rng.Read(b) // math/rand's Read never fails
	return b
}

// httpRig is a rig whose server runs fs and httpd under the extension
// population of examples/webserver.
type httpRig struct {
	*rig
	fs   *fs.FS
	srv  *httpd.Server
	docs [][]byte
	// logged counts what the access logger saw.
	logged int64
}

// statsBody is what the /stats route answers once the server has completed
// served responses, notFound of them 404s.
func statsBody(served, notFound int64) string {
	return fmt.Sprintf("served=%d notfound=%d\n", served, notFound)
}

func newHTTPRig(seed uint64) (*httpRig, error) {
	base, err := newRig(netstack.Config{})
	if err != nil {
		return nil, err
	}
	h := &httpRig{rig: base}
	if h.fs, err = fs.New(h.server.d, nil, ""); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < numDocs; i++ {
		doc := randomBytes(rng, minDocBytes+rng.Intn(maxDocBytes-minDocBytes+1))
		h.docs = append(h.docs, doc)
		h.fs.Put("/www"+docPath(i), doc)
	}
	h.docs = append(h.docs, randomBytes(rng, largeDocSize))
	h.fs.Put("/www"+largeDocPath, h.docs[numDocs])

	h.srv, err = httpd.New(h.server.d, httpd.Config{Stack: h.server.stack, FS: h.fs, Sched: h.server.sched})
	if err != nil {
		return nil, err
	}
	req := h.srv.Request
	sig := req.Signature()

	// A legacy-URL filter ahead of everything: upper-case links keep working.
	filterSig := rtti.Signature{Args: sig.Args, ByRef: []bool{true}, Result: sig.Result}
	_, err = req.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Legacy.Rewrite", Module: benchModule, Sig: filterSig},
		Fn: func(clo any, args []any) any {
			if p, ok := args[0].(string); ok {
				args[0] = strings.ToLower(p)
			}
			return nil
		},
	}, dispatch.AsFilter(), dispatch.First())
	if err != nil {
		return nil, err
	}
	// A dynamic route behind a guard.
	_, err = req.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Stats.Serve", Module: benchModule, Sig: sig},
		Fn: func(clo any, args []any) any {
			return &httpd.Response{Status: 200, Body: []byte(statsBody(h.srv.Served, h.srv.NotFound))}
		},
	}, dispatch.WithGuard(httpd.RouteGuard("/stats")))
	if err != nil {
		return nil, err
	}
	// A counting access logger behind everything; it contributes no response.
	_, err = req.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Log.Access", Module: benchModule, Sig: sig},
		Fn:   func(clo any, args []any) any { h.logged++; return (*httpd.Response)(nil) },
	}, dispatch.Last())
	if err != nil {
		return nil, err
	}
	// With several results per raise the first 200 wins and nils are ignored.
	err = req.SetResultHandler(func(acc, res any, i int) any {
		a, _ := acc.(*httpd.Response)
		b, _ := res.(*httpd.Response)
		if b == nil || (a != nil && (a.Status == 200 || b.Status != 200)) {
			return acc
		}
		return res
	})
	return h, err
}

// Ports of the udp_fanin workload: the active pair, and the range the seed
// draws the inactive sockets from.
const (
	udpEchoPort, udpClientPort = 7, 5000
	inactiveSockets            = 256
	inactivePortLo             = 10000
	inactivePortSpan           = 50000
)

// udpRig is a rig with inactiveSockets bound and idle on each machine, an
// echo strand on the server, and the client's socket.
type udpRig struct {
	*rig
	sock *netstack.UDPSocket
}

func newUDPRig(seed uint64, l *laps) (*udpRig, error) {
	base, err := newRig(netstack.Config{InlinePortGuards: true})
	if err != nil {
		return nil, err
	}
	u := &udpRig{rig: base}
	rng := rand.New(rand.NewSource(int64(seed)))
	for _, m := range u.machines() {
		for _, p := range rng.Perm(inactivePortSpan)[:inactiveSockets] {
			if _, err := m.stack.BindUDP(uint16(inactivePortLo + p)); err != nil {
				return nil, err
			}
			l.lap() // each install recompiles the event's whole plan
		}
	}
	echo, err := u.server.stack.BindUDP(udpEchoPort)
	if err != nil {
		return nil, err
	}
	u.server.sched.Spawn("echo", 0, func(st *sched.Strand) sched.Status {
		for {
			pkt, ok := echo.Recv()
			if !ok {
				break
			}
			_ = echo.Send(pkt.SrcIP, pkt.SrcPort, pkt.Payload) // a lost reply fails the client's check
		}
		echo.AwaitPacket(st)
		return sched.Block
	})
	u.sock, err = u.client.stack.BindUDP(udpClientPort)
	return u, err
}
