package main

import (
	"fmt"
	"runtime"
	"strings"

	"spin/internal/dispatch"
	"spin/internal/journal"
)

// A count is one public counter of the program, read at the edges of the
// measured window. Counts are exact: for one seed and one op count they
// repeat from run to run (but see countMetrics for the journal's).
type count int

const (
	cRaises count = iota
	cFired
	cSteps
	cVirtNs
	cWireFrames
	cEtherFrames
	cIPPackets
	cUDPDrops
	cTCPReaped
	cTCPOutOfOrder
	cSwitches
	cServed
	cNotFound
	cJournalRecords
	cJournalBytes
	cJournalBatches
	cJournalDropped
	cFaults
	numCounts
)

type counts [numCounts]int64

func (c *counts) sub(o *counts) {
	for i := range c {
		c[i] -= o[i]
	}
}

// addDispatcher sums raise and fire totals over every event of d, with the
// dispatcher's fault ledger.
func (c *counts) addDispatcher(d *dispatch.Dispatcher) {
	for _, ev := range d.Events() {
		st := ev.Stats()
		c[cRaises] += st.Raised
		c[cFired] += st.Fired
	}
	c[cFaults] += int64(d.FaultLedger().Total())
}

// addRig reads the counters of both machines, the wire and the simulator.
func (c *counts) addRig(r *rig) {
	c[cVirtNs] += int64(r.sim.Clock().Now())
	c[cWireFrames] += r.link.Frames
	for _, m := range r.machines() {
		c.addDispatcher(m.d)
		c[cEtherFrames] += m.stack.EtherFrames
		c[cIPPackets] += m.stack.IPPackets
		c[cUDPDrops] += m.stack.UDPDrops
		tcp := m.stack.TCPStats()
		c[cTCPReaped] += tcp.Reaped
		c[cTCPOutOfOrder] += tcp.OutOfOrder
		c[cSwitches] += m.sched.Switches()
	}
}

func (c *counts) addJournal(j *journal.Journal) {
	st := j.Stats()
	c[cJournalRecords] += st.Records
	c[cJournalBytes] += st.Bytes
	c[cJournalBatches] += st.Batches
	c[cJournalDropped] += st.DroppedRaises
}

// runtimeCounts is what the Go runtime did inside the measured window.
// Unlike counts these depend on garbage-collector timing.
type runtimeCounts struct {
	mallocs, bytes, gcCycles, gcPauseNs int64
}

func readRuntime() runtimeCounts {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounts{int64(m.Mallocs), int64(m.TotalAlloc), int64(m.NumGC), int64(m.PauseTotalNs)}
}

func (r runtimeCounts) sub(o runtimeCounts) runtimeCounts {
	return runtimeCounts{r.mallocs - o.mallocs, r.bytes - o.bytes, r.gcCycles - o.gcCycles, r.gcPauseNs - o.gcPauseNs}
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every metric is defined, and
// never zero, on all six workloads.
var endToEnd = []metricDef{
	{"lat_p05_ns", "ns", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// countMetrics reports each count, per op or as a total over the window.
// The journal's record, byte and batch counts are sampled, not exact: which
// raises the 1-in-1024 sampler records depends on the stripe of its striped
// counter, which stripe.Index picks from the goroutine's stack address.
var countMetrics = [numCounts]struct {
	name, unit     string
	total, sampled bool
}{
	cRaises:         {name: "dispatch.raises_per_op", unit: "count"},
	cFired:          {name: "dispatch.fired_per_op", unit: "count"},
	cSteps:          {name: "vtime.steps_per_op", unit: "count"},
	cVirtNs:         {name: "vtime.virt_us_per_op", unit: "us"}, // clock: model
	cWireFrames:     {name: "netwire.frames_per_op", unit: "count"},
	cEtherFrames:    {name: "netstack.ether_frames_per_op", unit: "count"},
	cIPPackets:      {name: "netstack.ip_packets_per_op", unit: "count"},
	cUDPDrops:       {name: "netstack.udp_drops", unit: "count", total: true},
	cTCPReaped:      {name: "netstack.tcp_reaped_per_op", unit: "count"},
	cTCPOutOfOrder:  {name: "netstack.tcp_out_of_order", unit: "count", total: true},
	cSwitches:       {name: "sched.switches_per_op", unit: "count"},
	cServed:         {name: "httpd.served_per_op", unit: "count"},
	cNotFound:       {name: "httpd.notfound_per_op", unit: "count"},
	cJournalRecords: {name: "journal.records_per_op", unit: "count", sampled: true},
	cJournalBytes:   {name: "journal.bytes_per_op", unit: "B", sampled: true},
	cJournalBatches: {name: "journal.batches_per_op", unit: "count", sampled: true},
	cJournalDropped: {name: "journal.dropped_raises", unit: "count", total: true},
	cFaults:         {name: "fault.faults", unit: "count", total: true},
}

// differ names the exact counts on which two passes over the same ops
// disagree, after adding extraFired to the first pass's fire count.
func (c *counts) differ(o *counts, extraFired int64) []string {
	var bad []string
	for i, m := range countMetrics {
		want := c[i]
		if count(i) == cFired {
			want += extraFired
		}
		if !m.sampled && o[i] != want {
			bad = append(bad, fmt.Sprintf("%s counted %d, then %d over the same ops", m.name, c[i], o[i]))
		}
	}
	return bad
}

// The raise shapes of raise_hot and raise_heavy, in schedule order.
var (
	hotShapes   = []string{"bypass0", "bypass2", "typed2", "inline5", "batch64"}
	heavyShapes = []string{"closure10", "fanin50", "fold3", "filter3"}
)

// spanLayer is a layer that span self time is attributed to in the traced
// pass.
type spanLayer int

const (
	layerSim spanLayer = iota
	layerRxIngress
	layerEther
	layerIP
	layerTCP
	layerUDP
	layerAcceptStrand
	layerConnStrand
	layerRequest
	layerClient
	numSpanLayers
)

// spanLayerNames names each layer's self-time metric.
var spanLayerNames = [numSpanLayers]string{
	layerSim:          "vtime.sim_self_ns_per_op",
	layerRxIngress:    "netstack.rx_ingress_self_ns_per_op",
	layerEther:        "netstack.ether_self_ns_per_op",
	layerIP:           "netstack.ip_self_ns_per_op",
	layerTCP:          "netstack.tcp_self_ns_per_op",
	layerUDP:          "netstack.udp_self_ns_per_op",
	layerAcceptStrand: "httpd.accept_strand_self_ns_per_op",
	layerConnStrand:   "httpd.conn_strand_self_ns_per_op",
	layerRequest:      "httpd.request_self_ns_per_op", // includes fs
	layerClient:       "client.self_ns_per_op",
}

// String names the layer as the trace file does: its metric without the
// suffix.
func (l spanLayer) String() string {
	name := strings.TrimSuffix(spanLayerNames[l], "self_ns_per_op")
	return strings.TrimRight(name, "_.")
}

// perLayer lists every per-layer metric in the order it is printed.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, m := range countMetrics {
		add(m.name, m.unit, "lower")
	}
	add("runtime.allocs_per_op", "count", "lower")
	add("runtime.bytes_per_op", "B", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_pause_ns_per_op", "ns", "lower")
	add("runtime.peak_heap_mb", "MB", "lower")
	add("e2e.ops_per_s", "op/s", "higher")
	add("e2e.lat_p50_ns", "ns", "lower")
	add("e2e.lat_p99_ns", "ns", "lower")
	add("e2e.lat_tail10_ns", "ns", "lower")
	for _, s := range append(append([]string{}, hotShapes...), heavyShapes...) {
		add("dispatch.raise_ns."+s, "ns", "lower")
	}
	for _, n := range []string{"dispatch.install_p50_ns", "dispatch.install_p99_ns",
		"dispatch.uninstall_p50_ns", "dispatch.raise_after_swap_ns", "vtime.at_step_ns",
		"netwire.send_deliver_ns.64", "netwire.send_deliver_ns.1500", "fs.get_ns"} {
		add(n, "ns", "lower")
	}
	for _, n := range callNames {
		add(n, "ns", "lower")
	}
	for _, n := range spanLayerNames {
		add(n, "ns", "lower")
	}
	add("trace.overhead_ratio", "ratio", "lower")
	add("trace.unattributed_ratio", "ratio", "lower")
	return defs
}
