// Webserver: the SPIN project served its home page from "an Alpha
// workstation running SPIN with a WEB server extension" (paper §4). This
// example boots that scenario in simulation: a machine running the web
// server extension over the netstack and fs substrates, a second machine
// fetching pages — and, because request handling is itself an event
// (Httpd.Request), three more extensions compose onto the running server
// without it knowing: a legacy-URL filter, a dynamic /stats route behind a
// guard, and an access logger.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"spin/internal/dispatch"
	"spin/internal/fs"
	"spin/internal/httpd"
	"spin/internal/kernel"
	"spin/internal/rtti"
	"spin/internal/scenario"
	"spin/internal/sched"
	"spin/internal/trace"
	"spin/internal/vtime"
)

func main() {
	// Boot the server machine and a client machine on one wire. The
	// server machine traces every raise; a short excerpt prints at the
	// end (`spin trace` replays this scenario with full export options).
	tracer := trace.New(trace.Config{Capacity: 16384})
	rig, err := scenario.Pair(kernel.Config{Name: "spin", Metered: true, Trace: tracer},
		kernel.Config{Name: "browser"})
	if err != nil {
		log.Fatal(err)
	}
	a, b := rig.Nodes[0], rig.Nodes[1]
	sa, sb := a.Stack, b.Stack

	// The document tree.
	fsA, err := fs.New(a.Dispatcher, a.CPU, "")
	if err != nil {
		log.Fatal(err)
	}
	fsA.Put("/www/index.html", []byte("<h1>The SPIN Project</h1>"))
	fsA.Put("/www/papers/events.ps", []byte("%!PS Dynamic Binding for an Extensible System"))

	// The web server extension. Idle connections are reaped after 50ms of
	// virtual time; no connection lives past one virtual second.
	srv, err := httpd.New(a.Dispatcher, httpd.Config{Stack: sa, FS: fsA, Sched: a.Sched,
		ReadTimeout: vtime.Micros(50000), WriteTimeout: vtime.Micros(1000000)})
	if err != nil {
		log.Fatal(err)
	}

	// Extension 1: legacy-URL filter — uppercase 1994-era links keep
	// working. A filter rewrites the path argument before the intrinsic
	// file server sees it.
	fsig := rtti.Signature{Args: []rtti.Type{rtti.Text},
		ByRef: []bool{true}, Result: httpd.ResponseType}
	_, err = srv.Request.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Legacy.Rewrite", Module: rtti.NewModule("Legacy"), Sig: fsig},
		Fn: func(clo any, args []any) any {
			if p, ok := args[0].(string); ok {
				args[0] = strings.ToLower(p)
			}
			return nil
		},
	}, dispatch.AsFilter(), dispatch.First())
	if err != nil {
		log.Fatal(err)
	}

	// Extension 2: a dynamic /stats route behind a guard.
	sig := srv.Request.Signature()
	_, err = srv.Request.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Stats.Serve", Module: rtti.NewModule("Stats"), Sig: sig},
		Fn: func(clo any, args []any) any {
			body := fmt.Sprintf("served=%d notfound=%d uptime=%v\n",
				srv.Served, srv.NotFound, vtime.Duration(a.Clock.Now()))
			return &httpd.Response{Status: 200, Body: []byte(body)}
		},
	}, dispatch.WithGuard(httpd.RouteGuard("/stats")))
	if err != nil {
		log.Fatal(err)
	}

	// Extension 3: an access logger, ordered last, contributing no
	// response. With several result-producing handlers on the event, a
	// result handler arbitrates: first 200 wins, nils ignored.
	var accessLog []string
	_, err = srv.Request.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Log.Access", Module: rtti.NewModule("Log"), Sig: sig},
		Fn: func(clo any, args []any) any {
			accessLog = append(accessLog, args[0].(string))
			return (*httpd.Response)(nil)
		},
	}, dispatch.Last())
	if err != nil {
		log.Fatal(err)
	}
	err = srv.Request.SetResultHandler(func(acc, res any, i int) any {
		if a, ok := acc.(*httpd.Response); ok && a != nil && a.Status == 200 {
			return a
		}
		if b, ok := res.(*httpd.Response); ok && b != nil {
			if a, ok := acc.(*httpd.Response); !ok || a == nil || b.Status == 200 {
				return b
			}
		}
		return acc
	})
	if err != nil {
		log.Fatal(err)
	}

	// The browser machine fetches four URLs over simulated TCP.
	paths := []string{"/", "/PAPERS/EVENTS.PS", "/stats", "/missing"}
	client, err := rig.Browse(paths)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("-- responses over the simulated wire --")
	for i, r := range client.Responses {
		body := strings.TrimSpace(string(r.Body))
		if len(body) > 48 {
			body = body[:48] + "..."
		}
		fmt.Printf("GET %-20s -> %d %s\n", paths[i], r.Status, body)
	}
	fmt.Println("\naccess log:", accessLog)
	fmt.Printf("server counters: served=%d notfound=%d badreqs=%d\n",
		srv.Served, srv.NotFound, srv.BadReqs)
	st := srv.Request.Stats()
	fmt.Printf("Httpd.Request event: raised=%d handlers=%d guards=%d\n",
		st.Raised, st.Handlers, st.Guards)
	fmt.Printf("virtual time elapsed: %v\n", vtime.Duration(a.Clock.Now()))

	// One traced raise's causal structure: the last Httpd.Request raise,
	// span by span (filter -> intrinsic -> guard -> handlers -> merges).
	spans := tracer.Snapshot()
	var last uint64
	for _, sp := range spans {
		if sp.Event == "Httpd.Request" {
			last = sp.Raise
		}
	}
	fmt.Println("\n-- trace of the last Httpd.Request raise --")
	for _, sp := range spans {
		if sp.Raise == last {
			fmt.Printf("%-12v %-36s cost=%v\n", sp.Kind, sp.Name, sp.Cost)
		}
	}

	// Graceful shutdown on SIGTERM: the signal handler calls
	// srv.Shutdown, which stops the accept loop and wakes every live
	// connection so it finishes its buffered requests and closes. The
	// example delivers the signal to itself; a real deployment would get
	// it from the operator.
	keepalive, err := httpd.NewClient(sb, "10.0.0.1", 80)
	if err != nil {
		log.Fatal(err)
	}
	got := false
	b.Sched.Spawn("keepalive", 0, func(st *sched.Strand) sched.Status {
		if !keepalive.Conn().Established() {
			keepalive.Conn().AwaitEstablished(st)
			return sched.Block
		}
		if !got {
			got = true
			_ = keepalive.Get("/")
		}
		keepalive.Pump()
		if keepalive.Conn().EOF() {
			_ = keepalive.Conn().Close()
			return sched.Done
		}
		keepalive.Conn().AwaitData(st)
		return sched.Block
	})

	// The operator's SIGTERM lands 10 virtual milliseconds in — after the
	// keep-alive request is served, before the idle reaper would fire.
	// The example signals itself and waits for delivery; a real
	// deployment's handler goroutine would do the <-sigc and Shutdown.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	a.Sim.After(vtime.Micros(10000), func() {
		_ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
		<-sigc
		srv.Shutdown()
	})
	a.Sim.Run(0)
	fmt.Printf("\nSIGTERM received: drained=%v timedout=%d (keep-alive connection closed after %d responses)\n",
		srv.Drained(), srv.TimedOut, len(keepalive.Responses))
}
