package scenario

import (
	"fmt"

	"spin/internal/admit"
	"spin/internal/dispatch"
	"spin/internal/fault"
	"spin/internal/kernel"
	"spin/internal/netwire"
	"spin/internal/remote"
	"spin/internal/rtti"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// The two-machine partition drill: one deterministic scenario exercising
// the full failure-domain story — clean-wire latency (remote vs local
// crossover), a lossy phase proving idempotent retry + dedup, and a
// partition phase walking the breaker through trip, heartbeat-declared
// partition, degradation, heal, half-open, and close. `spin remote`
// formats the report. Everything runs in virtual time, so every number is
// reproducible byte-for-byte from the seed.

// DrillReport is the measured outcome of one RunDrill.
type DrillReport struct {
	// Clean phase: virtual-time latency.
	CleanRaises  int
	CleanRTTUs   float64 // mean remote raise→ack round trip, µs
	LocalRaiseUs float64 // mean local metered raise, µs
	CrossoverX   float64 // CleanRTTUs / LocalRaiseUs
	// Lossy phase: delivery accounting under seeded drop.
	LossyRaises    int
	LossyDropRate  float64
	LossyDelivered int64
	LossyDeduped   int64
	LossyRetried   int64
	LossyTimedOut  int64
	WireDrops      int64 // frames the fault plan actually dropped
	// Exactly-once proof: handler firings on B during the lossy phase
	// must equal accepted raises.
	LossyApplied int64
	LossyFired   int64
	// Partition phase: breaker + degradation accounting.
	PartitionShed     int64
	PartitionRerouted int64
	HeartbeatMisses   int64
	BreakerTrips      int64
	Transitions       []string // breaker transitions in order, "closed->open" style
	HealedDelivered   int64    // raises delivered after the heal
}

// ExactlyOnce reports whether the lossy phase applied every raise at most
// once: each application fired the handler once, every acknowledged raise
// (delivered, or deduped because a retry landed after the original) was
// applied, and the only applications beyond those are raises the sender
// timed out on after B had applied them — the acknowledgement was what the
// wire lost.
func (r *DrillReport) ExactlyOnce() bool {
	acked := r.LossyDelivered + r.LossyDeduped
	return r.LossyApplied == r.LossyFired && acked <= r.LossyApplied && r.LossyApplied <= acked+r.LossyTimedOut
}

// RemoteRig is the two-machine bench the drill and the remote smoke gates
// share: A raises across the wire into the receiver served on B.
type RemoteRig struct {
	*Rig
	A, B *Node
	Recv *remote.Receiver
}

const (
	// RemotePort is the port B's receiver listens on.
	RemotePort = 9000
	// RemotePrefix is the receiver's event-name prefix: wire raises carry
	// bare names, machine B namespaces the corresponding events with it.
	RemotePrefix = "B:"
)

// NewRemoteRig boots the pair, defines B:Remote.Ping on B and serves a
// receiver there.
func NewRemoteRig() (*RemoteRig, error) {
	rig, err := Pair(kernel.Config{Name: "a", Metered: true}, kernel.Config{Name: "b"})
	if err != nil {
		return nil, err
	}
	r := &RemoteRig{Rig: rig, A: rig.Nodes[0], B: rig.Nodes[1]}
	sig := rtti.Signature{Args: []rtti.Type{rtti.Word}}
	_, err = r.B.Dispatcher.DefineEvent(RemotePrefix+"Remote.Ping", sig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Remote.Ping", Sig: sig},
			Fn:   func(clo any, args []any) any { return nil },
		}))
	if err != nil {
		return nil, err
	}
	r.Recv, err = remote.Serve(remote.ReceiverConfig{Stack: r.B.Stack, Sched: r.B.Sched,
		Dispatcher: r.B.Dispatcher, Port: RemotePort, EventPrefix: RemotePrefix})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// peerConfig is the plain peer of A towards B; the drill's partition phase
// adds deadlines, heartbeats and a breaker to it.
func (r *RemoteRig) peerConfig(self string) remote.PeerConfig {
	return remote.PeerConfig{
		Name: "b", Self: self, Addr: "10.0.0.2", Port: RemotePort,
		Stack: r.A.Stack, Sched: r.A.Sched, Clock: r.A.Clock,
	}
}

// WarmPeer raises a few events across the wire from A and returns the
// peer with everything still resident — the state the benchsmoke gate
// measures a purely local event beside.
func (r *RemoteRig) WarmPeer() (*remote.Peer, error) {
	p := remote.NewPeer(r.peerConfig("bench-a"))
	for i := 0; i < 8; i++ {
		if err := p.Raise("Remote.Ping", uint64(i)); err != nil {
			return nil, err
		}
		r.runFor(drillMs(10))
	}
	if p.Stats().Delivered != 8 {
		return nil, fmt.Errorf("remote rig warmup: delivered %d of 8", p.Stats().Delivered)
	}
	return p, nil
}

func drillMs(n int) vtime.Duration { return vtime.Duration(n) * 1000 * 1000 }

// RunDrill executes the three-phase drill with the given fault seed and
// returns the report. Deterministic: same seed, same report.
func RunDrill(seed uint64) (*DrillReport, error) {
	rig, err := NewRemoteRig()
	if err != nil {
		return nil, err
	}
	rep := &DrillReport{}

	// ---- Phase 1: clean wire. Remote RTT vs local raise cost. ----
	p := remote.NewPeer(rig.peerConfig("machine-a"))
	const cleanN = 32
	rep.CleanRaises = cleanN
	var rttTotal vtime.Duration
	for i := 0; i < cleanN; i++ {
		start := rig.A.Clock.Now()
		acked := false
		err := p.RaiseCall(remote.Binding{Event: "Remote.Ping"}, func(s remote.Status, err error) {
			rttTotal += rig.A.Clock.Now().Sub(start)
			acked = true
		}, uint64(i))
		if err != nil {
			return nil, fmt.Errorf("clean raise %d: %w", i, err)
		}
		rig.runFor(drillMs(30))
		if !acked {
			return nil, fmt.Errorf("clean raise %d: no ack within 30ms", i)
		}
	}
	rep.CleanRTTUs = float64(rttTotal) / float64(cleanN) / 1e3

	// The local comparator: the same event shape dispatched on A without
	// the wire.
	sig := rtti.Signature{Args: []rtti.Type{rtti.Word}}
	local, err := rig.A.Dispatcher.DefineEvent("Local.Ping", sig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Local.Ping", Sig: sig},
			Fn:   func(clo any, args []any) any { return nil },
		}))
	if err != nil {
		return nil, err
	}
	const localN = 1000
	lstart := rig.A.Clock.Now()
	for i := 0; i < localN; i++ {
		if _, err := local.Raise1(uint64(i)); err != nil {
			return nil, err
		}
	}
	rep.LocalRaiseUs = float64(rig.A.Clock.Now().Sub(lstart)) / float64(localN) / 1e3
	if rep.LocalRaiseUs > 0 {
		rep.CrossoverX = rep.CleanRTTUs / rep.LocalRaiseUs
	}

	// ---- Phase 2: lossy wire. Retry + dedup deliver exactly once. ----
	rig.Link.InjectFaults(netwire.FaultPlan{Seed: seed, Drop: 0.10})
	appliedBefore := rig.Recv.Stats().Applied
	firedBefore := rig.Recv.Stats().Fired
	statsBefore := p.Stats()
	ledgerBefore := p.Ledger()
	const lossyN = 64
	rep.LossyRaises = lossyN
	rep.LossyDropRate = 0.10
	for i := 0; i < lossyN; i++ {
		_ = p.Raise("Remote.Ping", uint64(i))
		rig.runFor(drillMs(10))
	}
	rig.runFor(drillMs(600)) // drain retries through their deadlines
	st := p.Stats()
	rep.LossyDelivered = st.Delivered - statsBefore.Delivered
	rep.LossyDeduped = st.Deduped - statsBefore.Deduped
	rep.LossyTimedOut = st.TimedOut - statsBefore.TimedOut
	rep.LossyRetried = p.Ledger().Retried - ledgerBefore.Retried
	rep.LossyApplied = rig.Recv.Stats().Applied - appliedBefore
	rep.LossyFired = rig.Recv.Stats().Fired - firedBefore
	rep.WireDrops = rig.Link.FaultStats().Drops
	rig.Link.ClearFaults()
	p.Close()
	rig.runFor(drillMs(100))

	// ---- Phase 3: partition. Heartbeats declare it, the breaker opens,
	// bound raises degrade to fallbacks, the heal half-opens then closes. ----
	deg := admit.NewDegrader([]admit.Level{
		{Name: "tripped", MinPriority: 3},
		{Name: "partitioned", MinPriority: 1},
	}, 1)
	tracer := trace.New(trace.Config{Capacity: 128})
	faults := fault.NewLedger(fault.Policy{})
	cfg := rig.peerConfig("machine-a2")
	cfg.Deadline, cfg.MaxAttempts = drillMs(30), 2
	cfg.HeartbeatEvery, cfg.HeartbeatMisses = drillMs(10), 2
	cfg.Breaker = remote.BreakerConfig{TripBudget: 100, Cooldown: drillMs(50)}
	cfg.Degrader, cfg.Tracer, cfg.Faults = deg, tracer, faults
	p2 := remote.NewPeer(cfg)
	fb, err := rig.A.Dispatcher.DefineEvent("Local.PingFallback", sig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Local.PingFallback", Sig: sig},
			Fn:   func(clo any, args []any) any { return nil },
		}))
	if err != nil {
		return nil, err
	}
	if err := p2.Raise("Remote.Ping", uint64(0)); err != nil { // warm the route
		return nil, err
	}
	rig.runFor(drillMs(25))
	rig.Link.Partition("mac-a", "mac-b")
	rig.runFor(drillMs(60)) // two missed probes declare the partition
	// Optional traffic during the partition: bound raises re-route, the
	// unbound ones shed — all visible in the admission ledger.
	for i := 0; i < 4; i++ {
		_ = p2.RaiseBound(remote.Binding{Event: "Remote.Ping", Priority: 2, Fallback: fb}, uint64(i))
		_ = p2.RaiseBound(remote.Binding{Event: "Remote.Ping", Priority: 2}, uint64(i))
	}
	rig.Link.Heal("mac-a", "mac-b")
	rig.runFor(drillMs(200)) // probes heal the breaker through half-open
	healedBefore := p2.Stats().Delivered
	_ = p2.Raise("Remote.Ping", uint64(9))
	rig.runFor(drillMs(50))

	st2 := p2.Stats()
	rep.PartitionShed = st2.Shed
	rep.PartitionRerouted = st2.Rerouted
	rep.HeartbeatMisses = st2.HeartbeatMisses
	rep.BreakerTrips = p2.Breaker().Trips
	rep.HealedDelivered = st2.Delivered - healedBefore
	for _, sp := range tracer.Snapshot() {
		if sp.Kind != trace.KindBreaker {
			continue
		}
		from := remote.BreakerState(sp.Detail >> 8 & 0xFF)
		to := remote.BreakerState(sp.Detail & 0xFF)
		rep.Transitions = append(rep.Transitions, from.String()+"->"+to.String())
	}
	p2.Close()
	rig.runFor(drillMs(100))
	return rep, nil
}
