// Package httpd is an in-kernel web server extension. The paper's §3
// inventory lists "a collection of integrated applications, including a
// distributed transaction system and a web server", and its conclusion
// points at "an Alpha workstation running SPIN with a WEB server
// extension" serving the project's home page. This package is that
// extension: a minimal HTTP/1.0 server running as strands over the
// netstack substrate, serving files from the fs substrate — and, being a
// SPIN extension, exposing its own request processing as an event that
// other extensions interpose on:
//
//	Httpd.Request(path: TEXT): Httpd.Response
//
// The intrinsic handler resolves the path against the file system.
// Filters rewrite paths (the MS-DOS filter composes here unchanged);
// guarded handlers serve dynamic routes; the event's default handler
// produces 404s. Access logging installs as a Last handler without
// touching the server.
package httpd

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"spin/internal/dispatch"
	"spin/internal/fs"
	"spin/internal/netstack"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/vtime"
)

// Module is the web server's module descriptor, authority over
// Httpd.Request.
var Module = rtti.NewModule("Httpd", "Httpd")

// ResponseType is the rtti type of HTTP responses.
var ResponseType = rtti.NewRef("Httpd.Response", nil)

// Response is what request handlers produce. The server sends Body by
// reference, so a handler must not modify it after returning it.
type Response struct {
	Status int
	Body   []byte
}

// RTTIType implements rtti.Described.
func (r *Response) RTTIType() rtti.Type { return ResponseType }

// statusText maps the status codes the server produces.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	}
	return "Internal Server Error"
}

// maxRequestLine bounds how many bytes a connection may buffer without a
// line terminator before the server answers 400 and closes: a peer that
// never sends one must not grow server memory without limit.
const maxRequestLine = 8 << 10

// docRoot prefixes request paths in the file system.
const docRoot = "/www"

// Config assembles a server.
type Config struct {
	Stack *netstack.Stack
	FS    *fs.FS
	Sched *sched.Scheduler
	// Port defaults to 80.
	Port uint16
	// Prefix namespaces the event name, like the other substrates.
	Prefix string
	// ReadTimeout closes a connection that stays idle — no request bytes
	// arriving — for at least this long (enforcement is lazy: a timer
	// polls every ReadTimeout, so an idle connection closes within two
	// periods). Zero disables. Requires a simulator; in real-time mode
	// virtual timers do not exist and the setting is ignored.
	ReadTimeout vtime.Duration
	// WriteTimeout caps a connection's total lifetime. The simulated
	// stack has an unbounded send window, so response writes complete
	// immediately and a per-write deadline would never fire; what remains
	// observable is a peer that neither sends another request nor closes,
	// and WriteTimeout bounds how long such a connection may hold its
	// strand. Zero disables; ignored in real-time mode like ReadTimeout.
	WriteTimeout vtime.Duration
}

// Server is a running web server extension.
type Server struct {
	stack *netstack.Stack
	fsys  *fs.FS
	sched *sched.Scheduler
	port  uint16

	// Request is the Httpd.Request event: raised once per parsed HTTP
	// request, with the URL path as its argument.
	Request *dispatch.Event

	// Accepted is the Httpd.Accepted event: raised once per inbound
	// connection, with the connection as its argument. The intrinsic
	// handler spawns the connection strand; extensions interpose to
	// observe or veto connections.
	Accepted *dispatch.Event

	readTimeout  vtime.Duration
	writeTimeout vtime.Duration

	listener *netstack.TCPListener
	acceptor *sched.Strand

	// draining flips once on Shutdown; connection strands observe it and
	// close after answering whatever complete requests they have
	// buffered.
	draining atomic.Bool
	// connMu guards conns, the live-connection registry Shutdown walks to
	// wake idle strands. Shutdown may be called from outside the
	// simulator goroutine (a signal handler), hence the mutex.
	connMu sync.Mutex
	conns  map[*netstack.TCPConn]*sched.Strand

	// Served counts completed responses by status.
	Served   int64
	NotFound int64
	BadReqs  int64
	// TimedOut counts connections closed by ReadTimeout or WriteTimeout.
	TimedOut int64
}

// New defines the Httpd.Request event and starts the accept loop. The
// server serves until its listener is closed.
func New(d *dispatch.Dispatcher, cfg Config) (*Server, error) {
	s := &Server{stack: cfg.Stack, fsys: cfg.FS, sched: cfg.Sched, port: cfg.Port,
		readTimeout: cfg.ReadTimeout, writeTimeout: cfg.WriteTimeout,
		conns: make(map[*netstack.TCPConn]*sched.Strand)}
	if s.port == 0 {
		s.port = 80
	}

	sig := rtti.Signature{Args: []rtti.Type{rtti.Text}, Result: ResponseType}
	ev, err := d.DefineEvent(cfg.Prefix+"Httpd.Request", sig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Httpd.Request", Module: Module, Sig: sig},
			Fn:   s.intrinsicRequest,
		}))
	if err != nil {
		return nil, err
	}
	s.Request = ev
	// The default handler produces 404s when the intrinsic has been
	// deregistered (an extension replaced file serving entirely) and
	// nothing else claimed the request.
	err = ev.SetDefaultHandler(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Httpd.Default", Module: Module, Sig: sig},
		Fn: func(clo any, args []any) any {
			return &Response{Status: 404, Body: []byte("not found\n")}
		},
	})
	if err != nil {
		return nil, err
	}

	acceptSig := rtti.Signature{Args: []rtti.Type{netstack.TCPConnType}}
	s.Accepted, err = d.DefineEvent(cfg.Prefix+"Httpd.Accepted", acceptSig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Httpd.Accepted", Module: Module, Sig: acceptSig},
			Fn: func(clo any, args []any) any {
				conn := args[0].(*netstack.TCPConn)
				if s.draining.Load() {
					_ = conn.Close()
					return nil
				}
				s.sched.Spawn("httpd-conn", 0, s.connHandler(conn))
				return nil
			},
		}))
	if err != nil {
		return nil, err
	}

	if s.listener, err = cfg.Stack.ListenTCP(s.port); err != nil {
		return nil, err
	}
	s.acceptor = cfg.Sched.Spawn(fmt.Sprintf("httpd:%d", s.port), 0, s.acceptLoop)
	return s, nil
}

// Close stops accepting connections. Established connections keep being
// served; use Shutdown for a graceful drain.
func (s *Server) Close() {
	s.listener.Close()
	s.sched.Kill(s.acceptor)
}

// Shutdown drains the server gracefully: the listener closes, the accept
// loop stops, and every live connection strand is woken so it answers the
// complete requests already buffered and then closes instead of waiting
// for more. Safe to call from any goroutine (a SIGTERM handler, say);
// idempotent. Poll Drained — or run the simulator to quiescence — to
// observe completion.
func (s *Server) Shutdown() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.listener.Close()
	s.sched.Kill(s.acceptor)
	s.connMu.Lock()
	for _, st := range s.conns {
		s.sched.Wakeup(st)
	}
	s.connMu.Unlock()
}

// Drained reports whether Shutdown has been called and every connection
// has closed.
func (s *Server) Drained() bool {
	if !s.draining.Load() {
		return false
	}
	s.connMu.Lock()
	n := len(s.conns)
	s.connMu.Unlock()
	return n == 0
}

func (s *Server) track(conn *netstack.TCPConn, st *sched.Strand) {
	s.connMu.Lock()
	s.conns[conn] = st
	s.connMu.Unlock()
}

func (s *Server) untrack(conn *netstack.TCPConn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// intrinsicRequest is the native file-serving implementation.
func (s *Server) intrinsicRequest(clo any, args []any) any {
	path, _ := args[0].(string)
	if path == "/" {
		path = "/index.html"
	}
	body, ok := s.fsys.Get(docRoot + "/" + strings.TrimPrefix(path, "/"))
	if !ok {
		return &Response{Status: 404, Body: []byte("not found\n")}
	}
	return &Response{Status: 200, Body: body}
}

// acceptLoop drains the accept backlog, raising Httpd.Accepted once per
// connection; the event's intrinsic handler spawns the per-connection
// strand.
func (s *Server) acceptLoop(st *sched.Strand) sched.Status {
	for {
		conn, ok := s.listener.Accept()
		if !ok {
			break
		}
		// The handlers decide the connection's fate; the accept loop has
		// no caller to report a raise error to.
		_, _ = s.Accepted.Raise1(conn)
	}
	s.listener.AwaitConn(st)
	return sched.Block
}

// connHandler builds the per-connection strand body: accumulate request
// bytes, answer each complete request, close on EOF, read timeout, write
// timeout, or server drain.
//
// Timer callbacks and strand steps both run on the simulator goroutine,
// so the closure state below needs no locking; in real-time mode
// Scheduler.After reports ErrNoSimulator and timeouts are disabled.
func (s *Server) connHandler(conn *netstack.TCPConn) sched.StepFunc {
	var buf []byte
	scanned := 0 // buf[:scanned] holds no line terminator (between steps)
	var self *sched.Strand
	gen, armedAt := 0, 0 // bytes-arrived generation; snapshot at last arm
	done, timedOut := false, false
	var idler func()
	idler = func() {
		if done {
			return
		}
		if gen == armedAt {
			// A full ReadTimeout elapsed with no request bytes.
			timedOut = true
			s.sched.Wakeup(self)
			return
		}
		armedAt = gen
		_ = s.sched.After(s.readTimeout, idler)
	}
	return func(st *sched.Strand) sched.Status {
		if self == nil {
			self = st
			s.track(conn, st)
			if s.readTimeout > 0 {
				_ = s.sched.After(s.readTimeout, idler)
			}
			if s.writeTimeout > 0 {
				_ = s.sched.After(s.writeTimeout, func() {
					if !done {
						timedOut = true
						s.sched.Wakeup(self)
					}
				})
			}
		}
		for {
			data, ok := conn.Recv()
			if !ok {
				break
			}
			gen++
			buf = append(buf, data...)
		}
		// Serve every complete request line in the buffer. The first
		// scanned bytes of what is left to serve are known to hold no
		// terminator, so a line arriving in many segments is searched
		// once, not once per segment.
		rest := buf
		for {
			nl := bytes.IndexByte(rest[scanned:], '\n')
			if nl < 0 {
				scanned = len(rest)
				break
			}
			line := bytes.TrimRight(rest[:scanned+nl], "\r")
			rest, scanned = rest[scanned+nl+1:], 0
			if len(line) == 0 {
				continue // header terminator; headers are ignored
			}
			s.serve(conn, line)
		}
		// Keep the unterminated tail at the start of the one buffer.
		buf = buf[:copy(buf, rest)]
		tooLong := len(buf) > maxRequestLine
		if tooLong {
			s.badRequest(conn)
		}
		if tooLong || conn.EOF() || timedOut || s.draining.Load() {
			if timedOut {
				s.TimedOut++
			}
			done = true
			s.untrack(conn)
			_ = conn.Close()
			return sched.Done
		}
		conn.AwaitData(st)
		return sched.Block
	}
}

// serve parses one request line, raises Httpd.Request, and writes the
// response.
func (s *Server) serve(conn *netstack.TCPConn, line []byte) {
	method, rest := nextField(line)
	path, _ := nextField(rest)
	if len(path) == 0 || string(method) != "GET" {
		s.badRequest(conn)
		return
	}
	var resp *Response
	res, err := s.Request.Raise1(string(path))
	if err != nil {
		resp = &Response{Status: 500, Body: []byte(err.Error() + "\n")}
	} else if r, ok := res.(*Response); ok && r != nil {
		resp = r
	} else {
		resp = &Response{Status: 500, Body: []byte("no response\n")}
	}
	s.respond(conn, resp)
}

// badRequest answers 400 to a request the server cannot parse.
func (s *Server) badRequest(conn *netstack.TCPConn) {
	s.BadReqs++
	s.respond(conn, &Response{Status: 400, Body: []byte("bad request\n")})
}

// nextField splits off the first whitespace-delimited field of b.
func nextField(b []byte) (field, rest []byte) {
	const space = " \t\r\v\f"
	b = bytes.TrimLeft(b, space)
	if end := bytes.IndexAny(b, space); end >= 0 {
		return b[:end], b[end:]
	}
	return b, nil
}

// respond counts and writes one response. Only the first segment is
// built, header and head of the body in one buffer of exactly their size;
// the rest of the body goes out by reference, so the client's segments
// alias it (see Response). The first send is a whole MSS whenever a
// second follows, so the two cut the segments one send of both would.
func (s *Server) respond(conn *netstack.TCPConn, resp *Response) {
	if resp.Status == 404 {
		s.NotFound++
	}
	s.Served++
	var scratch [96]byte // fits any status the server itself produces
	head := append(scratch[:0], "HTTP/1.0 "...)
	head = strconv.AppendInt(head, int64(resp.Status), 10)
	head = append(head, ' ')
	head = append(head, statusText(resp.Status)...)
	head = append(head, "\r\nContent-Length: "...)
	head = strconv.AppendInt(head, int64(len(resp.Body)), 10)
	head = append(head, "\r\n\r\n"...)
	first := min(len(resp.Body), netstack.MSS-len(head))
	out := make([]byte, len(head)+first)
	copy(out[copy(out, head):], resp.Body[:first])
	if conn.Send(out) == nil && first < len(resp.Body) {
		_ = conn.Send(resp.Body[first:])
	}
}

// RouteGuard builds a FUNCTIONAL guard matching requests whose path has
// the given prefix, for dynamic-route handlers.
func RouteGuard(prefix string) dispatch.Guard {
	return dispatch.Guard{
		Proc: &rtti.Proc{Name: "Httpd.RouteGuard", Module: Module, Functional: true,
			Sig: rtti.Sig(rtti.Bool, rtti.Text)},
		Fn: func(clo any, args []any) bool {
			p, _ := args[0].(string)
			return strings.HasPrefix(p, prefix)
		},
	}
}

// Client is a minimal HTTP/1.0 client for driving the server inside the
// simulation (tests and examples).
type Client struct {
	conn *netstack.TCPConn
	buf  []byte
	// Responses collects parsed (status, body) pairs.
	Responses []Response
}

// NewClient dials the server.
func NewClient(stack *netstack.Stack, ip string, port uint16) (*Client, error) {
	conn, err := stack.DialTCP(ip, port)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Conn exposes the underlying connection for strand wait registration.
func (c *Client) Conn() *netstack.TCPConn { return c.conn }

// Get sends one GET request.
func (c *Client) Get(path string) error {
	return c.conn.Send([]byte("GET " + path + " HTTP/1.0\r\n\r\n"))
}

// Pump consumes received bytes and parses any complete responses.
func (c *Client) Pump() {
	for {
		data, ok := c.conn.Recv()
		if !ok {
			break
		}
		c.buf = append(c.buf, data...)
	}
	for {
		s := string(c.buf)
		headEnd := strings.Index(s, "\r\n\r\n")
		if headEnd < 0 {
			return
		}
		head := s[:headEnd]
		var status, length int
		if _, err := fmt.Sscanf(head, "HTTP/1.0 %d", &status); err != nil {
			// Malformed: drop a byte to avoid livelock.
			c.buf = c.buf[1:]
			continue
		}
		for _, ln := range strings.Split(head, "\r\n") {
			if strings.HasPrefix(ln, "Content-Length: ") {
				_, _ = fmt.Sscanf(ln, "Content-Length: %d", &length)
			}
		}
		total := headEnd + 4 + length
		if len(c.buf) < total {
			return
		}
		body := append([]byte(nil), c.buf[headEnd+4:total]...)
		c.buf = c.buf[total:]
		c.Responses = append(c.Responses, Response{Status: status, Body: body})
	}
}
