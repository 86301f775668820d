package scenario

import (
	"strings"

	"spin/internal/dispatch"
	"spin/internal/fs"
	"spin/internal/httpd"
	"spin/internal/kernel"
	"spin/internal/rtti"
	"spin/internal/sched"
)

// Webserver is the §4 scenario the tools replay: a machine serving the
// project's pages over simulated TCP to a browser machine, with
// extensions composed onto Httpd.Request. examples/webserver narrates the
// same population step by step.
type Webserver struct {
	*Rig
	FS     *fs.FS
	Server *httpd.Server
	// Logged counts the requests Log.Access has seen.
	Logged int
}

// NewWebserver boots the server machine from cfg and a browser machine
// beside it, fills the document tree and starts the web server extension.
func NewWebserver(cfg kernel.Config) (*Webserver, error) {
	rig, err := Pair(cfg, kernel.Config{Name: "browser"})
	if err != nil {
		return nil, err
	}
	a := rig.Nodes[0]
	w := &Webserver{Rig: rig}
	if w.FS, err = fs.New(a.Dispatcher, a.CPU, ""); err != nil {
		return nil, err
	}
	w.FS.Put("/www/index.html", []byte("<h1>The SPIN Project</h1>"))
	w.FS.Put("/www/papers/events.ps", []byte("%!PS Dynamic Binding for an Extensible System"))
	w.Server, err = httpd.New(a.Dispatcher, httpd.Config{Stack: a.Stack, FS: w.FS, Sched: a.Sched})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// InstallRoutes composes the two routing extensions onto the running
// server: Legacy.Rewrite, a filter ordered first that lowercases the path
// before the intrinsic file server sees it, and Stats.Serve, a dynamic
// /stats route behind a guard.
func (w *Webserver) InstallRoutes() error {
	req := w.Server.Request
	fsig := rtti.Signature{Args: []rtti.Type{rtti.Text},
		ByRef: []bool{true}, Result: httpd.ResponseType}
	_, err := req.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Legacy.Rewrite", Module: rtti.NewModule("Legacy"), Sig: fsig},
		Fn: func(clo any, args []any) any {
			if p, ok := args[0].(string); ok {
				args[0] = strings.ToLower(p)
			}
			return nil
		},
	}, dispatch.AsFilter(), dispatch.First())
	if err != nil {
		return err
	}
	_, err = req.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Stats.Serve", Module: rtti.NewModule("Stats"), Sig: req.Signature()},
		Fn: func(clo any, args []any) any {
			return &httpd.Response{Status: 200, Body: []byte("stats\n")}
		},
	}, dispatch.WithGuard(httpd.RouteGuard("/stats")))
	return err
}

// InstallLogger installs Log.Access, ordered last and contributing no
// response, and the result handler that arbitrates now that several
// handlers on the event produce results: the first 200 wins, nils are
// ignored.
func (w *Webserver) InstallLogger() error {
	req := w.Server.Request
	_, err := req.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Log.Access", Module: rtti.NewModule("Log"), Sig: req.Signature()},
		Fn: func(clo any, args []any) any {
			w.Logged++
			return (*httpd.Response)(nil)
		},
	}, dispatch.Last())
	if err != nil {
		return err
	}
	return req.SetResultHandler(func(acc, res any, i int) any {
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
}

// Browse has a strand on a Pair's second machine fetch paths from the web
// server on its first over one connection, runs the simulation until it is
// quiet, and returns the client with the responses it parsed.
func (r *Rig) Browse(paths []string) (*httpd.Client, error) {
	b := r.Nodes[1]
	client, err := httpd.NewClient(b.Stack, "10.0.0.1", 80)
	if err != nil {
		return nil, err
	}
	sent := false
	b.Sched.Spawn("browser", 0, func(st *sched.Strand) sched.Status {
		if !client.Conn().Established() {
			client.Conn().AwaitEstablished(st)
			return sched.Block
		}
		if !sent {
			sent = true
			for _, p := range paths {
				_ = client.Get(p) // a failed send shows as a missing response
			}
		}
		client.Pump()
		if len(client.Responses) >= len(paths) {
			_ = client.Conn().Close() // the strand is done with it either way
			return sched.Done
		}
		client.Conn().AwaitData(st)
		return sched.Block
	})
	r.Nodes[0].Sim.Run(0)
	return client, nil
}
