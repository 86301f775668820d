package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spin/internal/dispatch"
	"spin/internal/httpd"
	"spin/internal/rtti"
	"spin/internal/sched"
)

// call is one kind of call the load generator makes into netstack; the
// traced pass brackets each with two clock readings.
type call int

const (
	callTCPSend call = iota
	callTCPRecv
	callDialClose
	callUDPSend
	numCalls
)

var callNames = [numCalls]string{
	callTCPSend:   "netstack.tcp_send_call_ns_per_op",
	callTCPRecv:   "netstack.tcp_recv_call_ns_per_op",
	callDialClose: "netstack.dial_close_call_ns_per_op",
	callUDPSend:   "netstack.udp_send_call_ns_per_op",
}

// span is one recorded interval, kept for the trace file.
type span struct {
	layer      spanLayer
	start, dur int64
	depth      int
	op         int64
}

type openSpan struct {
	layer       spanLayer
	start, kids int64
}

// tracer records wall-clock spans from outside the program. The program's
// own internal/trace spans carry only synthetic stamps on an unmetered
// dispatcher, so the benchmark uses the system's extension mechanism as its
// hook: a First()/Last() pair of probe handlers on each layer's event opens
// and closes a span around everything the event's other handlers do, and
// the benchmark steps the simulator itself, so every step is a root span.
//
// Each step is attributed to the layer of the first probe that fires in it:
// a frame delivery, or a strand step by the strand's name. A step in which
// no probe fires (the wire handing a frame to a NIC, a timer) belongs to the
// simulator. A span's self time is its duration minus its children's.
//
// A nil *tracer is the untraced pass: its methods do nothing.
type tracer struct {
	base time.Time
	// last is when the previous step ended and the current one began.
	last      int64
	stepLayer spanLayer
	stepKids  int64
	stack     []openSpan

	// measuring is on inside the measured window; self, calls and fires
	// add up only then. fires counts the probe handlers that ran.
	measuring bool
	self      [numSpanLayers]int64
	calls     [numCalls]int64
	fires     int64
	// opID numbers the ops of the measured window, for the trace file.
	opID func() int64

	// spans is filled only when a trace file was asked for, with the first
	// keepOps ops of the measured window.
	spans   []span
	keepOps int64
}

func newTracer(keepSpans bool) *tracer {
	t := &tracer{base: time.Now(), stack: make([]openSpan, 0, 16)}
	if keepSpans {
		t.keepOps = 256
		t.spans = make([]span, 0, 1<<16)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(layer spanLayer, start, dur int64, depth int) {
	if !t.measuring || len(t.spans) == cap(t.spans) {
		return
	}
	if op := t.opID(); op < t.keepOps {
		t.spans = append(t.spans, span{layer, start, dur, depth, op})
	}
}

// open starts a span; a probe calls it from inside a raise.
func (t *tracer) open(layer spanLayer) {
	t.stack = append(t.stack, openSpan{layer: layer, start: t.now()})
	t.fire()
}

func (t *tracer) fire() {
	if t.measuring {
		t.fires++
	}
}

func (t *tracer) close() {
	top := len(t.stack) - 1
	s := t.stack[top]
	t.stack = t.stack[:top]
	dur := t.now() - s.start
	t.fire()
	if t.measuring {
		t.self[s.layer] += dur - s.kids
	}
	if top == 0 {
		t.stepKids += dur
	} else {
		t.stack[top-1].kids += dur
	}
	t.record(s.layer, s.start, dur, top+1)
}

// classify names the layer of the current step, once; layerSim names none.
func (t *tracer) classify(layer spanLayer) {
	if t.stepLayer == layerSim {
		t.stepLayer = layer
	}
}

// endStep closes the root span of the simulator step that just ran.
func (t *tracer) endStep() {
	now := t.now()
	if t.measuring {
		t.self[t.stepLayer] += now - t.last - t.stepKids
	}
	t.record(t.stepLayer, t.last, now-t.last, 0)
	t.last, t.stepLayer, t.stepKids = now, layerSim, 0
}

func (t *tracer) callBegin() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

func (t *tracer) callEnd(c call, begin int64) {
	if t != nil && t.measuring {
		t.calls[c] += t.now() - begin
	}
}

// probe installs the span-opening handler at the head of ev's list and the
// span-closing one at its tail. A step in which this is the first probe to
// fire belongs to stepLayer, unless that is layerSim.
func (t *tracer) probe(ev *dispatch.Event, layer, stepLayer spanLayer) error {
	sig := ev.Signature()
	// A probe contributes no result; on a result event it answers the
	// typed nil that result handlers ignore.
	var none any
	if sig.Result == httpd.ResponseType {
		none = (*httpd.Response)(nil)
	}
	_, err := ev.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Probe.Open", Module: benchModule, Sig: sig},
		Fn: func(any, []any) any {
			t.classify(stepLayer)
			t.open(layer)
			return none
		},
	}, dispatch.First())
	if err != nil {
		return err
	}
	_, err = ev.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Probe.Close", Module: benchModule, Sig: sig},
		Fn:   func(any, []any) any { t.close(); return none },
	}, dispatch.Last())
	return err
}

// strandLayers maps the names of the strands that run in the rigs to the
// layer their steps belong to. The benchmark's own strands, the generator
// and the UDP echo server, are both the client layer.
var strandLayers = map[string]spanLayer{
	"loadgen":    layerClient,
	"echo":       layerClient,
	"httpd:80":   layerAcceptStrand,
	"httpd-conn": layerConnStrand,
}

// instrument installs the probes on a rig. Strand.Run gets only a
// classifying handler, no span: the strand's body runs after that raise
// returns, in the remainder of the step.
func (t *tracer) instrument(r *rig, srv *httpd.Server) error {
	if t == nil {
		return nil
	}
	for _, m := range r.machines() {
		// A frame enters at Ether; the layers above nest inside its span.
		err := errors.Join(
			t.probe(m.stack.EtherArrived, layerEther, layerRxIngress),
			t.probe(m.stack.IPArrived, layerIP, layerSim),
			t.probe(m.stack.TCPArrived, layerTCP, layerSim),
			t.probe(m.stack.UDPArrived, layerUDP, layerSim))
		if err != nil {
			return err
		}
		run := m.sched.RunEvent
		_, err = run.Install(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Probe.Strand", Module: benchModule, Sig: run.Signature()},
			Fn: func(_ any, args []any) any {
				if st, ok := args[1].(*sched.Strand); ok {
					t.classify(strandLayers[st.Name()])
				}
				t.fire()
				return nil
			},
		}, dispatch.First())
		if err != nil {
			return err
		}
	}
	if srv == nil {
		return nil
	}
	return errors.Join(
		t.probe(srv.Request, layerRequest, layerSim),
		t.probe(srv.Accepted, layerAcceptStrand, layerSim))
}

// writeChrome writes the kept spans as Chrome trace_event JSON ("X"
// complete events, microseconds). Load it in chrome://tracing or Perfetto:
// one row per nesting depth, each span named after its layer and carrying
// the id of the op it belongs to.
func (t *tracer) writeChrome(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d}}`,
			s.layer, workload, s.depth, float64(s.start)/1e3, float64(s.dur)/1e3, s.op)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
