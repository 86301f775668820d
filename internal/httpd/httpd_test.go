package httpd

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/fs"
	"spin/internal/kernel"
	"spin/internal/netstack"
	"spin/internal/netwire"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/vtime"
)

// rig: server machine A with httpd + fs, client machine B.
type rig struct {
	a, b   *kernel.Machine
	sa, sb *netstack.Stack
	fsA    *fs.FS
	srv    *Server
}

func boot(t *testing.T) *rig {
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
	nicA, _ := link.Attach("mac-a")
	nicB, _ := link.Attach("mac-b")
	arp := map[string]string{"10.0.0.1": "mac-a", "10.0.0.2": "mac-b"}
	sa, err := netstack.New(netstack.Config{Dispatcher: a.Dispatcher, CPU: a.CPU,
		Sched: a.Sched, NIC: nicA, IP: "10.0.0.1", ARP: arp})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := netstack.New(netstack.Config{Dispatcher: b.Dispatcher, CPU: b.CPU,
		Sched: b.Sched, NIC: nicB, IP: "10.0.0.2", ARP: arp, Prefix: "B:"})
	if err != nil {
		t.Fatal(err)
	}
	fsA, err := fs.New(a.Dispatcher, a.CPU, "")
	if err != nil {
		t.Fatal(err)
	}
	fsA.Put("/www/index.html", []byte("<h1>SPIN</h1>"))
	fsA.Put("/www/paper.ps", []byte("%!PS dynamic binding"))
	srv, err := New(a.Dispatcher, Config{Stack: sa, FS: fsA, Sched: a.Sched})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{a: a, b: b, sa: sa, sb: sb, fsA: fsA, srv: srv}
}

// fetch drives a client strand through the given paths and returns the
// parsed responses.
func (r *rig) fetch(t *testing.T, paths ...string) []Response {
	t.Helper()
	client, err := NewClient(r.sb, "10.0.0.1", 80)
	if err != nil {
		t.Fatal(err)
	}
	sent := false
	r.b.Sched.Spawn("client", 0, func(st *sched.Strand) sched.Status {
		if !client.Conn().Established() {
			client.Conn().AwaitEstablished(st)
			return sched.Block
		}
		if !sent {
			sent = true
			for _, p := range paths {
				if err := client.Get(p); err != nil {
					t.Errorf("get %s: %v", p, err)
				}
			}
		}
		client.Pump()
		if len(client.Responses) >= len(paths) {
			_ = client.Conn().Close()
			return sched.Done
		}
		client.Conn().AwaitData(st)
		return sched.Block
	})
	r.a.Sim.Run(500000)
	if len(client.Responses) != len(paths) {
		t.Fatalf("got %d responses for %d requests", len(client.Responses), len(paths))
	}
	return client.Responses
}

func TestServeFile(t *testing.T) {
	r := boot(t)
	resp := r.fetch(t, "/paper.ps")
	if resp[0].Status != 200 || string(resp[0].Body) != "%!PS dynamic binding" {
		t.Fatalf("resp = %+v", resp[0])
	}
	if r.srv.Served != 1 {
		t.Fatalf("served = %d", r.srv.Served)
	}
}

func TestRootServesIndex(t *testing.T) {
	r := boot(t)
	resp := r.fetch(t, "/")
	if resp[0].Status != 200 || !strings.Contains(string(resp[0].Body), "SPIN") {
		t.Fatalf("resp = %+v", resp[0])
	}
}

func TestNotFound(t *testing.T) {
	r := boot(t)
	resp := r.fetch(t, "/missing.html")
	if resp[0].Status != 404 {
		t.Fatalf("status = %d", resp[0].Status)
	}
	if r.srv.NotFound != 1 {
		t.Fatalf("notfound = %d", r.srv.NotFound)
	}
}

func TestMultipleRequestsOneConnection(t *testing.T) {
	r := boot(t)
	resp := r.fetch(t, "/", "/paper.ps", "/nope")
	if resp[0].Status != 200 || resp[1].Status != 200 || resp[2].Status != 404 {
		t.Fatalf("statuses = %d %d %d", resp[0].Status, resp[1].Status, resp[2].Status)
	}
	if r.srv.Served != 3 {
		t.Fatalf("served = %d", r.srv.Served)
	}
}

func TestDynamicRouteHandlerWithGuard(t *testing.T) {
	// A second extension serves /stats through a guarded handler on the
	// same event — the server itself is untouched.
	r := boot(t)
	statsMod := rtti.NewModule("Stats")
	sig := r.srv.Request.Signature()
	_, err := r.srv.Request.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Stats.Serve", Module: statsMod, Sig: sig},
		Fn: func(clo any, args []any) any {
			return &Response{Status: 200, Body: []byte("uptime: forever")}
		},
	}, dispatch.WithGuard(RouteGuard("/stats")))
	if err != nil {
		t.Fatal(err)
	}
	// Deregister the intrinsic for /stats? Not needed: the intrinsic
	// also fires and returns 404 for the unknown path — so a result
	// handler must pick the dynamic answer. Prefer the highest-status..
	// simplest: prefer the first 200.
	err = r.srv.Request.SetResultHandler(func(acc, res any, i int) any {
		a, _ := acc.(*Response)
		b, _ := res.(*Response)
		if a != nil && a.Status == 200 {
			return a
		}
		return b
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := r.fetch(t, "/stats", "/paper.ps")
	if resp[0].Status != 200 || string(resp[0].Body) != "uptime: forever" {
		t.Fatalf("stats resp = %+v", resp[0])
	}
	if resp[1].Status != 200 {
		t.Fatalf("file resp = %+v", resp[1])
	}
}

func TestPathFilterComposes(t *testing.T) {
	// The MS-DOS filter idea applied to URLs: a filter uppercase-folds
	// legacy paths before the intrinsic sees them.
	r := boot(t)
	fsig := rtti.Signature{Args: []rtti.Type{rtti.Text},
		ByRef: []bool{true}, Result: ResponseType}
	_, err := r.srv.Request.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Legacy.Filter", Module: rtti.NewModule("Legacy"), Sig: fsig},
		Fn: func(clo any, args []any) any {
			if p, ok := args[0].(string); ok {
				args[0] = strings.ToLower(p)
			}
			return nil
		},
	}, dispatch.AsFilter(), dispatch.First())
	if err != nil {
		t.Fatal(err)
	}
	resp := r.fetch(t, "/PAPER.PS")
	if resp[0].Status != 200 {
		t.Fatalf("filtered path status = %d", resp[0].Status)
	}
}

func TestAccessLogAsLastHandler(t *testing.T) {
	r := boot(t)
	var logged []string
	sig := r.srv.Request.Signature()
	_, err := r.srv.Request.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Log.Access", Module: rtti.NewModule("Log"), Sig: sig},
		Fn: func(clo any, args []any) any {
			logged = append(logged, args[0].(string))
			return (*Response)(nil)
		},
	}, dispatch.Last())
	if err != nil {
		t.Fatal(err)
	}
	// The logger returns a nil *Response; the result handler must
	// prefer the real one.
	err = r.srv.Request.SetResultHandler(func(acc, res any, i int) any {
		if a, ok := acc.(*Response); ok && a != nil {
			return a
		}
		if b, ok := res.(*Response); ok && b != nil {
			return b
		}
		return acc
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = r.fetch(t, "/paper.ps", "/")
	if len(logged) != 2 || logged[0] != "/paper.ps" {
		t.Fatalf("logged = %v", logged)
	}
}

func TestBadRequest(t *testing.T) {
	r := boot(t)
	client, err := NewClient(r.sb, "10.0.0.1", 80)
	if err != nil {
		t.Fatal(err)
	}
	sent := false
	r.b.Sched.Spawn("client", 0, func(st *sched.Strand) sched.Status {
		if !client.Conn().Established() {
			client.Conn().AwaitEstablished(st)
			return sched.Block
		}
		if !sent {
			sent = true
			_ = client.Conn().Send([]byte("BREW /coffee HTCPCP/1.0\r\n"))
		}
		client.Pump()
		if len(client.Responses) >= 1 {
			return sched.Done
		}
		client.Conn().AwaitData(st)
		return sched.Block
	})
	r.a.Sim.Run(500000)
	if len(client.Responses) != 1 || client.Responses[0].Status != 400 {
		t.Fatalf("responses = %+v", client.Responses)
	}
	if r.srv.BadReqs != 1 {
		t.Fatalf("badreqs = %d", r.srv.BadReqs)
	}
}

func TestCloseStopsAccepting(t *testing.T) {
	r := boot(t)
	r.srv.Close()
	// A new connection attempt is refused (reset), so the client never
	// establishes.
	conn, err := r.sb.DialTCP("10.0.0.1", 80)
	if err != nil {
		t.Fatal(err)
	}
	r.a.Sim.Run(200000)
	if conn.Established() {
		t.Fatal("connected to a closed server")
	}
}

func TestReadTimeoutClosesIdleConnection(t *testing.T) {
	r := boot(t)
	srv2, err := New(r.a.Dispatcher, Config{Stack: r.sa, FS: r.fsA, Sched: r.a.Sched,
		Port: 81, Prefix: "T:", ReadTimeout: vtime.Micros(1000)})
	if err != nil {
		t.Fatal(err)
	}
	// Dial and establish, then send nothing: the idle timer fires and the
	// server closes the connection.
	client, err := NewClient(r.sb, "10.0.0.1", 81)
	if err != nil {
		t.Fatal(err)
	}
	r.a.Sim.Run(500000)
	if srv2.TimedOut != 1 {
		t.Fatalf("timedout = %d, want 1", srv2.TimedOut)
	}
	if !client.Conn().EOF() && !client.Conn().Closed() {
		t.Fatal("client connection still open after read timeout")
	}
}

func TestReadTimeoutSparesActiveConnection(t *testing.T) {
	r := boot(t)
	srv2, err := New(r.a.Dispatcher, Config{Stack: r.sa, FS: r.fsA, Sched: r.a.Sched,
		Port: 81, Prefix: "T:", ReadTimeout: vtime.Micros(5000)})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(r.sb, "10.0.0.1", 81)
	if err != nil {
		t.Fatal(err)
	}
	sent := false
	r.b.Sched.Spawn("client", 0, func(st *sched.Strand) sched.Status {
		if !client.Conn().Established() {
			client.Conn().AwaitEstablished(st)
			return sched.Block
		}
		if !sent {
			sent = true
			_ = client.Get("/paper.ps")
		}
		client.Pump()
		if len(client.Responses) >= 1 {
			_ = client.Conn().Close()
			return sched.Done
		}
		client.Conn().AwaitData(st)
		return sched.Block
	})
	r.a.Sim.Run(500000)
	if len(client.Responses) != 1 || client.Responses[0].Status != 200 {
		t.Fatalf("responses = %+v", client.Responses)
	}
	if srv2.TimedOut != 0 {
		t.Fatalf("active connection timed out: %d", srv2.TimedOut)
	}
}

func TestWriteTimeoutCapsConnectionLifetime(t *testing.T) {
	r := boot(t)
	srv2, err := New(r.a.Dispatcher, Config{Stack: r.sa, FS: r.fsA, Sched: r.a.Sched,
		Port: 81, Prefix: "T:", WriteTimeout: vtime.Micros(2000)})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(r.sb, "10.0.0.1", 81)
	if err != nil {
		t.Fatal(err)
	}
	sent := false
	r.b.Sched.Spawn("client", 0, func(st *sched.Strand) sched.Status {
		if !client.Conn().Established() {
			client.Conn().AwaitEstablished(st)
			return sched.Block
		}
		if !sent {
			sent = true
			_ = client.Get("/paper.ps")
		}
		client.Pump()
		if client.Conn().EOF() {
			_ = client.Conn().Close()
			return sched.Done
		}
		// Never close: the lifetime cap must end the connection.
		client.Conn().AwaitData(st)
		return sched.Block
	})
	r.a.Sim.Run(500000)
	if len(client.Responses) != 1 || client.Responses[0].Status != 200 {
		t.Fatalf("responses = %+v", client.Responses)
	}
	if srv2.TimedOut != 1 {
		t.Fatalf("timedout = %d, want 1", srv2.TimedOut)
	}
}

func TestShutdownDrainsConnections(t *testing.T) {
	r := boot(t)
	client, err := NewClient(r.sb, "10.0.0.1", 80)
	if err != nil {
		t.Fatal(err)
	}
	sent := false
	r.b.Sched.Spawn("client", 0, func(st *sched.Strand) sched.Status {
		if !client.Conn().Established() {
			client.Conn().AwaitEstablished(st)
			return sched.Block
		}
		if !sent {
			sent = true
			_ = client.Get("/paper.ps")
		}
		client.Pump()
		if client.Conn().EOF() {
			_ = client.Conn().Close()
			return sched.Done
		}
		// Keep-alive: hold the connection open until the server closes.
		client.Conn().AwaitData(st)
		return sched.Block
	})
	r.a.Sim.Run(500000)
	if len(client.Responses) != 1 {
		t.Fatalf("responses = %d, want 1", len(client.Responses))
	}
	if r.srv.Drained() {
		t.Fatal("drained before Shutdown")
	}

	r.srv.Shutdown()
	r.srv.Shutdown() // idempotent
	r.a.Sim.Run(500000)
	if !r.srv.Drained() {
		t.Fatal("server not drained after Shutdown")
	}
	if !client.Conn().EOF() && !client.Conn().Closed() {
		t.Fatal("client connection survived drain")
	}
	// New connection attempts are refused.
	conn, err := r.sb.DialTCP("10.0.0.1", 80)
	if err != nil {
		t.Fatal(err)
	}
	r.a.Sim.Run(200000)
	if conn.Established() {
		t.Fatal("connected to a draining server")
	}
	if r.srv.Served != 1 {
		t.Fatalf("served = %d, want 1", r.srv.Served)
	}
}

// A peer that never ends its request line must not grow the server's
// buffer without limit: past maxRequestLine the server answers 400 once
// and closes, and keeps serving everyone else.
func TestRequestLineBounded(t *testing.T) {
	r := boot(t)
	client, err := NewClient(r.sb, "10.0.0.1", 80)
	if err != nil {
		t.Fatal(err)
	}
	sent := false
	r.b.Sched.Spawn("flooder", 0, func(st *sched.Strand) sched.Status {
		if !client.Conn().Established() {
			client.Conn().AwaitEstablished(st)
			return sched.Block
		}
		if !sent {
			sent = true
			_ = client.Conn().Send(bytes.Repeat([]byte("A"), 64<<10))
		}
		client.Pump()
		if client.Conn().EOF() {
			_ = client.Conn().Close()
			return sched.Done
		}
		client.Conn().AwaitData(st)
		return sched.Block
	})
	r.a.Sim.Run(500000)
	if len(client.Responses) != 1 || client.Responses[0].Status != 400 {
		t.Fatalf("responses = %+v, want one 400", client.Responses)
	}
	if !client.Conn().EOF() {
		t.Fatal("the server did not close the connection")
	}
	if r.srv.BadReqs != 1 || r.srv.Served != 1 {
		t.Fatalf("badreqs = %d, served = %d, want 1 and 1", r.srv.BadReqs, r.srv.Served)
	}
	if n := r.sa.TCPConns() + r.sb.TCPConns(); n != 0 {
		t.Fatalf("%d endpoints left after the close", n)
	}
	resp := r.fetch(t, "/paper.ps")
	if resp[0].Status != 200 || string(resp[0].Body) != "%!PS dynamic binding" {
		t.Fatalf("fresh connection after the flood: %+v", resp[0])
	}
}

// A request line may arrive in any number of segments, and several
// requests in one; the server searches each byte for the terminator once.
func TestRequestSplitAcrossSegments(t *testing.T) {
	r := boot(t)
	client, err := NewClient(r.sb, "10.0.0.1", 80)
	if err != nil {
		t.Fatal(err)
	}
	pieces := []string{"GE", "T /pa", "per.ps HTTP/1.0\r", "\n\r\nGET / HTTP/1.0\r\n\r\nGET /nope", " HTTP/1.0\r\n", "\r\n"}
	next := 0
	r.b.Sched.Spawn("client", 0, func(st *sched.Strand) sched.Status {
		if !client.Conn().Established() {
			client.Conn().AwaitEstablished(st)
			return sched.Block
		}
		if next < len(pieces) {
			// One piece per wakeup, so the server sees each on its own.
			_ = client.Conn().Send([]byte(pieces[next]))
			next++
			_ = r.b.Sched.WakeAfter(st, vtime.Micros(2000))
			return sched.Block
		}
		client.Pump()
		if len(client.Responses) >= 3 {
			_ = client.Conn().Close()
			return sched.Done
		}
		client.Conn().AwaitData(st)
		return sched.Block
	})
	r.a.Sim.Run(500000)
	if len(client.Responses) != 3 {
		t.Fatalf("got %d responses, want 3", len(client.Responses))
	}
	for i, want := range []struct {
		status int
		body   string
	}{{200, "%!PS dynamic binding"}, {200, "<h1>SPIN</h1>"}, {404, "not found\n"}} {
		if got := client.Responses[i]; got.Status != want.status || string(got.Body) != want.body {
			t.Fatalf("response %d = %d %q, want %d %q", i, got.Status, got.Body, want.status, want.body)
		}
	}
	if r.srv.BadReqs != 0 {
		t.Fatalf("badreqs = %d", r.srv.BadReqs)
	}
}

// keepAlive is the benchmark's rig: a server and a client host on one
// wire, both unmetered, with one keep-alive connection dialed and
// established.
type keepAlive struct {
	sim            *vtime.Simulator
	files          *fs.FS
	srv            *Server
	server, client *netstack.Stack
	conn           *netstack.TCPConn
}

func newKeepAlive(t *testing.T) *keepAlive {
	t.Helper()
	sim := vtime.NewSimulator(&vtime.Clock{})
	link := netwire.NewLink(sim, 0, 0)
	arp := map[string]string{"10.0.0.1": "mac-a", "10.0.0.2": "mac-b"}
	host := func(ip, prefix string) (*dispatch.Dispatcher, *sched.Scheduler, *netstack.Stack) {
		nic, err := link.Attach(arp[ip])
		if err != nil {
			t.Fatal(err)
		}
		d := dispatch.New(dispatch.WithSimulator(sim))
		sc, err := sched.New(d, nil, sim)
		if err != nil {
			t.Fatal(err)
		}
		st, err := netstack.New(netstack.Config{Dispatcher: d, Sched: sc, NIC: nic, IP: ip, ARP: arp, Prefix: prefix})
		if err != nil {
			t.Fatal(err)
		}
		return d, sc, st
	}
	d, sc, server := host("10.0.0.1", "")
	_, _, client := host("10.0.0.2", "B:")
	files, err := fs.New(d, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(d, Config{Stack: server, FS: files, Sched: sc})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.DialTCP("10.0.0.1", 80)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(0) // the handshake, and its timers
	return &keepAlive{sim: sim, files: files, srv: srv, server: server, client: client, conn: conn}
}

// drain pops every segment conn has received, returning their lengths and
// a copy of their bytes.
func drain(conn *netstack.TCPConn) (lens []int, data []byte) {
	for {
		seg, ok := conn.Recv()
		if !ok {
			return lens, data
		}
		lens = append(lens, len(seg))
		data = append(data, seg...)
	}
}

// discard pops every segment conn has received, returning their byte
// count; unlike drain it allocates nothing.
func discard(conn *netstack.TCPConn) (n int) {
	for {
		seg, ok := conn.Recv()
		if !ok {
			return n
		}
		n += len(seg)
	}
}

// skipUnderRace skips an allocation budget under the race detector, where
// sync.Pool drops a quarter of what it is given, so Raise2's pooled
// argument frames allocate at random.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation budgets do not hold under the race detector")
			}
		}
	}
}

// responseHead is the header respond writes for a 200 of n body bytes.
func responseHead(n int) string {
	return "HTTP/1.0 200 OK\r\nContent-Length: " + strconv.Itoa(n) + "\r\n\r\n"
}

// One GET of a 1 KiB document on a keep-alive connection: four segments,
// five strand dispatches, one Httpd.Request raise. The packets, the path
// string and the response are what is left; the same request was about 90
// allocations when every frame cost fourteen.
func TestGetAllocBudget(t *testing.T) {
	k := newKeepAlive(t)
	doc := bytes.Repeat([]byte("spin"), 256)
	k.files.Put("/www/doc.html", doc)
	req := []byte("GET /doc.html HTTP/1.0\r\n\r\n")
	received := 0
	get := func() {
		_ = k.conn.Send(req)
		k.sim.Run(0)
		received += discard(k.conn)
	}
	get()
	perResponse := received
	if perResponse <= len(doc) {
		t.Fatalf("first response is %d bytes, the document alone %d", perResponse, len(doc))
	}
	allocs := testing.AllocsPerRun(100, get)
	if k.srv.Served != 102 || k.srv.NotFound != 0 || received != 102*perResponse {
		t.Fatalf("served %d (%d not found), %d bytes received, want 102 responses of %d", k.srv.Served, k.srv.NotFound, received, perResponse)
	}
	skipUnderRace(t)
	if allocs > 30 {
		t.Fatalf("keep-alive GET allocates %.1f times, budget 30", allocs)
	}
}

// A keep-alive GET of a 16 KiB document (the http_large workload) moves
// the document by reference: neither fs.Get nor respond copies it, so the
// bytes allocated per GET stay under half the document. Copying it even
// once would cost the whole document.
func TestLargeGetAllocBudget(t *testing.T) {
	k := newKeepAlive(t)
	doc := bytes.Repeat([]byte("0123456789abcdef"), 1024)
	k.files.Put("/www/large.bin", doc)
	req := []byte("GET /large.bin HTTP/1.0\r\n\r\n")
	received := 0
	get := func() {
		_ = k.conn.Send(req)
		k.sim.Run(0)
		received += discard(k.conn)
	}
	get() // warm: the first GET grows the queues and buffers it reuses
	const gets = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < gets; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	want := (gets + 1) * (len(responseHead(len(doc))) + len(doc))
	if k.srv.Served != gets+1 || received != want {
		t.Fatalf("served %d, %d bytes received, want %d responses and %d bytes", k.srv.Served, received, gets+1, want)
	}
	skipUnderRace(t)
	if perGet := (after.TotalAlloc - before.TotalAlloc) / gets; perGet >= uint64(len(doc)/2) {
		t.Fatalf("keep-alive GET of %d bytes allocates %d bytes, budget %d", len(doc), perGet, len(doc)/2)
	}
}

// Segments of a response in flight alias the file's bytes; neither an
// append to the file nor a Put replacing it changes what the client
// receives.
func TestInFlightResponseSurvivesFileChange(t *testing.T) {
	doc := bytes.Repeat([]byte("0123456789abcdef"), 1024)
	for _, tc := range []struct {
		name   string
		change func(t *testing.T, files *fs.FS, fd uint64)
	}{
		{"write", func(t *testing.T, files *fs.FS, fd uint64) {
			if err := files.Write(fd, bytes.Repeat([]byte("W"), 1024)); err != nil {
				t.Fatal(err)
			}
		}},
		{"put", func(t *testing.T, files *fs.FS, fd uint64) {
			files.Put("/www/large.bin", bytes.Repeat([]byte("P"), len(doc)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newKeepAlive(t)
			// Written in pieces, so append's amortized growth leaves the
			// file's buffer room to take the "write" case's append in place.
			k.files.Put("/www/large.bin", doc[:1])
			fd, err := k.files.Open("/www/large.bin")
			if err != nil {
				t.Fatal(err)
			}
			for _, piece := range [][]byte{doc[1 : len(doc)/2], doc[len(doc)/2:]} {
				if err := k.files.Write(fd, piece); err != nil {
					t.Fatal(err)
				}
			}
			_ = k.conn.Send([]byte("GET /large.bin HTTP/1.0\r\n\r\n"))
			for k.srv.Served == 0 && k.sim.Step() {
			}
			want := responseHead(len(doc)) + string(doc)
			_, got := drain(k.conn)
			if k.srv.Served != 1 || len(got) >= len(want) {
				t.Fatalf("served %d with %d bytes already delivered, want the response in flight", k.srv.Served, len(got))
			}
			tc.change(t, k.files, fd)
			k.sim.Run(0)
			_, more := drain(k.conn)
			if string(append(got, more...)) != want {
				t.Fatal("response changed by a file change made while it was in flight")
			}
		})
	}
}

// A Get result is clipped to the file's length: appending to it copies,
// so neither the caller's append nor a later Write disturbs the other.
func TestGetResultAppendLeavesFile(t *testing.T) {
	files, err := fs.New(dispatch.New(), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	files.Put("/www/doc.html", []byte("a"))
	fd, err := files.Open("/www/doc.html")
	if err != nil {
		t.Fatal(err)
	}
	if err := files.Write(fd, []byte("bcdef")); err != nil {
		t.Fatal(err)
	}
	b, _ := files.Get("/www/doc.html")
	mine := append(b, 'X')
	if got, _ := files.Get("/www/doc.html"); string(got) != "abcdef" {
		t.Fatalf("file after appending to a Get result = %q", got)
	}
	if err := files.Write(fd, []byte("g")); err != nil {
		t.Fatal(err)
	}
	if got, _ := files.Get("/www/doc.html"); string(got) != "abcdefg" || string(mine) != "abcdefX" {
		t.Fatalf("file %q, appended Get result %q; want \"abcdefg\", \"abcdefX\"", got, mine)
	}
}

// respond sends the header with the head of the body, then the rest by
// reference; around the first segment's boundary and for a 16 KiB body,
// the client receives the segments one send of header and body cuts.
func TestRespondSegmentsMatchOneSend(t *testing.T) {
	k := newKeepAlive(t)
	raw, err := k.server.ListenTCP(81)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := k.client.DialTCP("10.0.0.1", 81)
	if err != nil {
		t.Fatal(err)
	}
	k.sim.Run(0)
	peer, ok := raw.Accept()
	if !ok {
		t.Fatal("no connection accepted on port 81")
	}
	fit := netstack.MSS - len(responseHead(1000)) // four-digit lengths
	for _, n := range []int{fit - 1, fit, fit + 1, 16 << 10} {
		body := bytes.Repeat([]byte("spin"), n/4+1)[:n]
		k.srv.respond(peer, &Response{Status: 200, Body: body})
		k.sim.Run(0)
		lens, got := drain(conn)
		if err := peer.Send([]byte(responseHead(n) + string(body))); err != nil {
			t.Fatal(err)
		}
		k.sim.Run(0)
		wantLens, want := drain(conn)
		if !bytes.Equal(got, want) || !slices.Equal(lens, wantLens) {
			t.Fatalf("body of %d: segments %v (%d bytes), one send cuts %v (%d bytes)", n, lens, len(got), wantLens, len(want))
		}
	}
}
