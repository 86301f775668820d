package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"spin/internal/netstack"
	"spin/internal/sched"
)

// simRun is one pass of a simulated workload: a rig, and a closed loop of
// one load-generator strand on the client machine. The simulator is
// single-threaded, so more flows would add state but no parallelism.
type simRun struct {
	*rig
	// generator is the load generator's strand body; it reports every op to
	// the recorder and retires once the recorder is done.
	generator func(rec *recorder) sched.StepFunc
	// more adds the counters the rig does not have, and verify makes the
	// checks that need the whole run; either may be nil.
	more   func(c *counts)
	verify func() []string
	tr     *tracer
	steps  int64
}

func (s *simRun) counts(c *counts) {
	c.addRig(s.rig)
	c[cSteps] += s.steps
	if s.more != nil {
		s.more(c)
	}
}

func (s *simRun) close() {}

var errStalled = errors.New("the simulation ran out of events before the pass ended")

func (s *simRun) run(rec *recorder) error {
	s.client.sched.Spawn("loadgen", 0, s.generator(rec))
	if s.tr != nil {
		s.tr.last = s.tr.now()
	}
	for !rec.done {
		if !s.sim.Step() {
			return errStalled
		}
		s.steps++
		if s.tr != nil {
			s.tr.endStep()
		}
	}
	// Let teardown finish: the last connection's FINs and handshake timers.
	for i := 0; i < 1<<16 && s.sim.Step(); i++ {
	}
	return nil
}

func (s *simRun) check() []string {
	var bad []string
	for _, m := range s.machines() {
		if n := m.stack.TCPConns(); n != 0 {
			bad = append(bad, fmt.Sprintf("%d TCP endpoints left in %s's demux table", n, m.stack.IP()))
		}
	}
	if s.verify != nil {
		bad = append(bad, s.verify()...)
	}
	return bad
}

// probeFires is how many handlers the traced pass adds to each raise of a
// probed event: the First()/Last() pair.
const probeFires = 2

// checkFired verifies an event's fire count over the whole run: want fires
// per raise untraced, plus the probes when traced.
func (s *simRun) checkFired(name string, raised, fired, want int64) []string {
	if s.tr != nil {
		want += probeFires
	}
	if fired != raised*want {
		return []string{fmt.Sprintf("%s fired %d times in %d raises, want %d per raise", name, fired, raised, want)}
	}
	return nil
}

// responseReader reassembles HTTP/1.0 responses from a connection's
// segments. It parses each header once, unlike httpd.Client.Pump, which
// scans its whole buffer again on every call.
type responseReader struct {
	buf []byte
	// total is the size of the response being received, header included; 0
	// until its header is complete.
	total, status, bodyAt int
}

var (
	headerEnd     = []byte("\r\n\r\n")
	contentLength = []byte("Content-Length: ")
)

// next returns the next complete response, or done=false when more bytes
// are needed. The body is valid until the following call.
func (r *responseReader) next() (status int, body []byte, done bool, err error) {
	if r.total == 0 {
		end := bytes.Index(r.buf, headerEnd)
		if end < 0 {
			return 0, nil, false, nil
		}
		head := r.buf[:end]
		at := bytes.Index(head, contentLength)
		if len(head) < 12 || at < 0 {
			return 0, nil, false, fmt.Errorf("malformed response header %q", head)
		}
		length := head[at+len(contentLength):]
		if nl := bytes.IndexByte(length, '\r'); nl >= 0 {
			length = length[:nl]
		}
		n, err1 := strconv.Atoi(string(length))
		st, err2 := strconv.Atoi(string(head[9:12]))
		if err := errors.Join(err1, err2); err != nil {
			return 0, nil, false, fmt.Errorf("malformed response header %q: %w", head, err)
		}
		r.status, r.bodyAt, r.total = st, end+len(headerEnd), end+len(headerEnd)+n
	}
	if len(r.buf) < r.total {
		return 0, nil, false, nil
	}
	status, body = r.status, r.buf[r.bodyAt:r.total]
	r.buf = r.buf[r.total:]
	r.total = 0
	return status, body, true, nil
}

// httpClient is what the two HTTP generators share: one connection and the
// bracketed calls into netstack.
type httpClient struct {
	*httpRig
	tr   *tracer
	conn *netstack.TCPConn
	rd   responseReader
	// served and notFound mirror the server's counters, which the closed
	// loop lets the client predict exactly.
	served, notFound int64
	scratch          []byte
}

func getRequest(path string) []byte { return []byte("GET " + path + " HTTP/1.0\r\n\r\n") }

func (c *httpClient) dial() error {
	t := c.tr.callBegin()
	conn, err := c.client.stack.DialTCP(serverIP, 80)
	c.tr.callEnd(callDialClose, t)
	c.conn = conn
	c.rd.buf = c.rd.buf[:0]
	c.rd.total = 0
	return err
}

func (c *httpClient) close() {
	t := c.tr.callBegin()
	_ = c.conn.Close() // a FIN that cannot be sent leaves the endpoint unreaped, which check reports
	c.tr.callEnd(callDialClose, t)
}

func (c *httpClient) send(req []byte) error {
	t := c.tr.callBegin()
	err := c.conn.Send(req)
	c.tr.callEnd(callTCPSend, t)
	return err
}

// receive moves what has arrived into the reader and returns the next
// complete response.
func (c *httpClient) receive() (int, []byte, bool, error) {
	t := c.tr.callBegin()
	for {
		seg, ok := c.conn.Recv()
		if !ok {
			break
		}
		c.rd.buf = append(c.rd.buf, seg...)
	}
	c.tr.callEnd(callTCPRecv, t)
	status, body, done, err := c.rd.next()
	if err == nil && !done && c.conn.EOF() {
		err = errors.New("connection closed inside a response")
	}
	return status, body, done, err
}

// got tallies one response and reports whether it is the expected one.
func (c *httpClient) got(status int, body []byte, wantStatus int, wantBody []byte) bool {
	c.served++
	if status == 404 {
		c.notFound++
	}
	return status == wantStatus && bytes.Equal(body, wantBody)
}

func (c *httpClient) moreCounts(n *counts) {
	n[cServed] += c.srv.Served
	n[cNotFound] += c.srv.NotFound
}

// verifyServer checks the server's own tallies against the client's.
func (c *httpClient) verifyServer(s *simRun, firedPerRequest int64) []string {
	var bad []string
	if c.srv.Served != c.served || c.srv.NotFound != c.notFound || c.logged != c.served {
		bad = append(bad, fmt.Sprintf("server served %d (404: %d, logged %d), client received %d (404: %d)",
			c.srv.Served, c.srv.NotFound, c.logged, c.served, c.notFound))
	}
	st := c.srv.Request.Stats()
	return append(bad, s.checkFired("Httpd.Request", st.Raised, st.Fired-c.statsFires(), firedPerRequest)...)
}

// statsFires is how often the guarded /stats route fired: once per session.
func (c *httpClient) statsFires() int64 { return c.notFound }

var notFoundBody = []byte("not found\n")

// requestsPerSession is the four GETs of one browser session: a document,
// its upper-cased legacy URL, /stats, and a missing path.
const requestsPerSession = 4

// newHTTPSession builds the http_session workload. An op is DialTCP, four
// sequential GETs, Close, and the wait until the endpoint is reaped.
func newHTTPSession(seed uint64, tr *tracer) (*simRun, error) {
	h, err := newHTTPRig(seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	var lower, upper, missing [numDocs][]byte
	for i := range lower {
		lower[i] = getRequest(docPath(i))
		upper[i] = getRequest(strings.ToUpper(docPath(i)))
		missing[i] = getRequest(fmt.Sprintf("/missing/%d", rng.Intn(1<<20)))
	}
	statsReq := getRequest("/stats")
	if err := tr.instrument(h.rig, h.srv); err != nil {
		return nil, err
	}
	c := &httpClient{httpRig: h, tr: tr}
	s := &simRun{rig: h.rig, tr: tr, more: c.moreCounts}
	// Filter, intrinsic and logger fire on every request.
	s.verify = func() []string { return c.verifyServer(s, 3) }

	const (
		idle = iota
		connecting
		receiving
		closing
	)
	s.generator = func(rec *recorder) sched.StepFunc {
		state, req, doc, ok := idle, 0, 0, true
		t0 := rec.begin()
		request := func() []byte {
			switch req {
			case 0:
				return lower[doc]
			case 1:
				return upper[doc]
			case 2:
				return statsReq
			}
			return missing[doc]
		}
		return func(st *sched.Strand) sched.Status {
			for {
				switch state {
				case idle:
					doc, req, ok = rng.Intn(numDocs), 0, true
					if err := c.dial(); err != nil {
						if t0 = rec.op(t0, rec.now(), false); rec.done {
							return sched.Done
						}
						continue
					}
					state = connecting
				case connecting:
					if c.conn.Closed() { // refused, or the handshake timed out
						ok, state = false, closing
						continue
					}
					if !c.conn.Established() {
						c.conn.AwaitEstablished(st)
						return sched.Block
					}
					ok = c.send(request()) == nil
					state = receiving
				case receiving:
					status, body, done, err := c.receive()
					if err != nil {
						c.conn.Abort()
						ok, state = false, closing
						continue
					}
					if !done {
						c.conn.AwaitData(st)
						return sched.Block
					}
					switch req {
					case 0, 1:
						ok = c.got(status, body, 200, h.docs[doc]) && ok
					case 2:
						c.scratch = strconv.AppendInt(append(c.scratch[:0], "served="...), c.served, 10)
						c.scratch = strconv.AppendInt(append(c.scratch, " notfound="...), c.notFound, 10)
						c.scratch = append(c.scratch, '\n')
						ok = c.got(status, body, 200, c.scratch) && ok
					case 3:
						ok = c.got(status, body, 404, notFoundBody) && ok
					}
					if req++; req < requestsPerSession {
						ok = c.send(request()) == nil && ok
						continue
					}
					c.close()
					state = closing
				case closing:
					// The op ends when both endpoints have left the demux tables.
					if h.client.stack.TCPConns()+h.server.stack.TCPConns() > 0 {
						c.conn.AwaitData(st)
						return sched.Block
					}
					t0 = rec.op(t0, rec.now(), ok)
					if rec.done {
						return sched.Done
					}
					state = idle
				}
			}
		}
	}
	return s, nil
}

// newHTTPLarge builds the http_large workload. An op is one keep-alive GET
// of the 16 KiB document: 12 MSS segments, each acknowledged.
func newHTTPLarge(seed uint64, tr *tracer) (*simRun, error) {
	h, err := newHTTPRig(seed)
	if err != nil {
		return nil, err
	}
	if err := tr.instrument(h.rig, h.srv); err != nil {
		return nil, err
	}
	c := &httpClient{httpRig: h, tr: tr}
	s := &simRun{rig: h.rig, tr: tr, more: c.moreCounts}
	s.verify = func() []string { return c.verifyServer(s, 3) }
	large, req := h.docs[numDocs], getRequest(largeDocPath)

	s.generator = func(rec *recorder) sched.StepFunc {
		var t0 int64
		started := false
		// The one connection carries every op, so losing it ends the pass.
		fail := func() sched.Status {
			rec.op(t0, rec.now(), false)
			rec.done = true
			return sched.Done
		}
		return func(st *sched.Strand) sched.Status {
			if c.conn == nil {
				if err := c.dial(); err != nil {
					return fail()
				}
			}
			if c.conn.Closed() { // refused, or the handshake timed out
				return fail()
			}
			if !c.conn.Established() {
				c.conn.AwaitEstablished(st)
				return sched.Block
			}
			if !started {
				started = true
				t0 = rec.begin()
				_ = c.send(req) // a failed send shows as a closed connection below
			}
			for {
				status, body, done, err := c.receive()
				if err != nil {
					c.conn.Abort()
					return fail()
				}
				if !done {
					c.conn.AwaitData(st)
					return sched.Block
				}
				t0 = rec.op(t0, rec.now(), c.got(status, body, 200, large))
				if rec.done {
					c.close()
					return sched.Done
				}
				_ = c.send(req)
			}
		}
	}
	return s, nil
}

// udpPayloads is how many distinct seeded datagrams udp_fanin cycles
// through.
const udpPayloads = 1024

// newUDPFanin builds the udp_fanin workload. An op is one 8-byte UDP echo
// roundtrip past the inactive sockets' port guards on both machines.
func newUDPFanin(seed uint64, tr *tracer, l *laps) (*simRun, error) {
	u, err := newUDPRig(seed, l)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	var payloads [udpPayloads][]byte
	for i := range payloads {
		payloads[i] = randomBytes(rng, 8)
	}
	if err := tr.instrument(u.rig, nil); err != nil {
		return nil, err
	}
	s := &simRun{rig: u.rig, tr: tr}
	s.verify = func() []string {
		// Exactly the one bound socket fires per datagram, on each machine.
		var bad []string
		for _, m := range u.machines() {
			st := m.stack.UDPArrived.Stats()
			bad = append(bad, s.checkFired(m.stack.UDPArrived.Name(), st.Raised, st.Fired, 1)...)
		}
		return bad
	}
	send := func(p []byte) bool {
		t := tr.callBegin()
		err := u.sock.Send(serverIP, udpEchoPort, p)
		tr.callEnd(callUDPSend, t)
		return err == nil
	}
	s.generator = func(rec *recorder) sched.StepFunc {
		i, t0, sent := 0, rec.begin(), false
		return func(st *sched.Strand) sched.Status {
			for {
				if sent {
					pkt, ok := u.sock.Recv()
					if !ok {
						u.sock.AwaitPacket(st)
						return sched.Block
					}
					t0 = rec.op(t0, rec.now(), bytes.Equal(pkt.Payload, payloads[i%udpPayloads]))
					i++
					if rec.done {
						return sched.Done
					}
				}
				if sent = send(payloads[i%udpPayloads]); !sent {
					t0 = rec.op(t0, rec.now(), false)
					i++
					if rec.done {
						return sched.Done
					}
				}
			}
		}
	}
	return s, nil
}
