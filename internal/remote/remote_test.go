package remote

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"spin/internal/admit"
	"spin/internal/dispatch"
	"spin/internal/fault"
	"spin/internal/kernel"
	"spin/internal/netstack"
	"spin/internal/netwire"
	"spin/internal/rtti"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// rig is the two-machine drill bench: machine A raises across the wire
// into machine B's dispatcher.
type rig struct {
	a, b   *kernel.Machine
	sa, sb *Rigs
	link   *netwire.Link
	recv   *Receiver
	// hits counts B-side handler firings; sum accumulates the Word arg so
	// effect duplication (not just call duplication) is observable.
	hits atomic.Int64
	sum  atomic.Uint64
}

// Rigs bundles a machine's stack for the test harness.
type Rigs struct{ stack *netstack.Stack }

const rigPort = 9000

func twoMachines(t *testing.T) *rig {
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
	nicA, err := link.Attach("mac-a")
	if err != nil {
		t.Fatal(err)
	}
	nicB, err := link.Attach("mac-b")
	if err != nil {
		t.Fatal(err)
	}
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
	r := &rig{a: a, b: b, sa: &Rigs{sa}, sb: &Rigs{sb}, link: link}

	// B exports the drill event the wire raises land on.
	sig := rtti.Signature{Args: []rtti.Type{rtti.Word}}
	_, err = b.Dispatcher.DefineEvent("B:Remote.Ping", sig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Remote.Ping", Sig: sig},
			Fn: func(clo any, args []any) any {
				r.hits.Add(1)
				r.sum.Add(args[0].(uint64))
				return nil
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	r.recv, err = Serve(ReceiverConfig{Stack: sb, Sched: b.Sched,
		Dispatcher: b.Dispatcher, Port: rigPort, EventPrefix: "B:"})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// peer builds machine A's sending endpoint with test-friendly timing.
func (r *rig) peer(mut func(*PeerConfig)) *Peer {
	cfg := PeerConfig{
		Name: "b", Self: "machine-a", Addr: "10.0.0.2", Port: rigPort,
		Stack: r.sa.stack, Sched: r.a.Sched, Clock: r.a.Clock,
	}
	if mut != nil {
		mut(&cfg)
	}
	return NewPeer(cfg)
}

func ms(n int) vtime.Duration { return vtime.Duration(n) * 1000 * 1000 }

// run drives the shared simulator for about d of virtual time.
func (r *rig) run(t *testing.T, d vtime.Duration) {
	t.Helper()
	r.a.Sim.RunUntil(r.a.Clock.Now().Add(d))
}

func TestRemoteRaiseDeliversAndAcks(t *testing.T) {
	r := twoMachines(t)
	p := r.peer(nil)
	var status Status
	err := p.RaiseCall(Binding{Event: "Remote.Ping"},
		func(s Status, err error) { status = s }, uint64(7))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, ms(50))
	if r.hits.Load() != 1 || r.sum.Load() != 7 {
		t.Fatalf("handler hits=%d sum=%d, want 1/7", r.hits.Load(), r.sum.Load())
	}
	if status != StatusApplied {
		t.Fatalf("ack status = %v, want applied", status)
	}
	st := p.Stats()
	if st.Delivered != 1 || st.TimedOut != 0 || st.Shed != 0 {
		t.Fatalf("peer stats = %+v", st)
	}
	rs := r.recv.Stats()
	if rs.Raises != 1 || rs.Applied != 1 || rs.Fired != 1 {
		t.Fatalf("receiver stats = %+v", rs)
	}
	l := p.Ledger()
	if l.Submitted != 1 || l.Completed != 1 || l.Depth != 0 {
		t.Fatalf("ledger = %+v", l)
	}
}

func TestRemoteUnknownEventAndNoHandlerStatuses(t *testing.T) {
	r := twoMachines(t)
	// An announcement event with no handlers bound.
	sig := rtti.Signature{Args: []rtti.Type{rtti.Word}}
	if _, err := r.b.Dispatcher.DefineEvent("B:Remote.Empty", sig); err != nil {
		t.Fatal(err)
	}
	p := r.peer(nil)
	var got []Status
	keep := func(s Status, err error) { got = append(got, s) }
	_ = p.RaiseCall(Binding{Event: "Remote.NoSuch"}, keep, uint64(1))
	_ = p.RaiseCall(Binding{Event: "Remote.Empty"}, keep, uint64(1))
	r.run(t, ms(50))
	if len(got) != 2 || got[0] != StatusUnknown || got[1] != StatusNoHandler {
		t.Fatalf("statuses = %v, want [unknown nohandler]", got)
	}
	if rs := r.recv.Stats(); rs.Unknown != 1 {
		t.Fatalf("receiver unknown = %d", rs.Unknown)
	}
}

// TestRemoteRetryUnderDropDeliversExactlyOnce is the at-most-once pillar:
// a seeded lossy wire drops raises, acks, and handshake segments; the
// peer's idempotent retries push every accepted raise through, and the
// receiver's dedup window guarantees no raise fires its handlers twice.
func TestRemoteRetryUnderDropDeliversExactlyOnce(t *testing.T) {
	r := twoMachines(t)
	r.link.InjectFaults(netwire.FaultPlan{Seed: 42, Drop: 0.25})
	p := r.peer(func(c *PeerConfig) {
		c.Deadline = ms(400)
		c.MaxAttempts = 10
		// The lossy-wire drill measures retry/dedup, not circuit breaking:
		// keep the breaker out of the way.
		c.Breaker = BreakerConfig{TripBudget: 1000}
	})
	const n = 20
	var want uint64
	for i := 1; i <= n; i++ {
		if err := p.Raise("Remote.Ping", uint64(i)); err != nil {
			t.Fatalf("raise %d: %v", i, err)
		}
		want += uint64(i)
		r.run(t, ms(30))
	}
	r.run(t, ms(600))

	st := p.Stats()
	if st.Delivered+st.Deduped != n {
		t.Fatalf("delivered=%d deduped=%d timedout=%d shed=%d, want %d settled ok",
			st.Delivered, st.Deduped, st.TimedOut, st.Shed, n)
	}
	// Exactly once: every accepted raise fired its handler exactly one
	// time, and the sum proves no arg applied twice.
	if r.hits.Load() != n || r.sum.Load() != want {
		t.Fatalf("handler hits=%d sum=%d, want %d/%d", r.hits.Load(), r.sum.Load(), n, want)
	}
	rs := r.recv.Stats()
	if rs.Applied != n {
		t.Fatalf("receiver applied = %d, want %d", rs.Applied, n)
	}
	// The lossy wire must actually have forced recovery work, or the test
	// proves nothing.
	fs := r.link.FaultStats()
	if fs.Drops == 0 {
		t.Fatal("fault plan dropped nothing; seed or rate broken")
	}
	if l := p.Ledger(); l.Retried == 0 {
		t.Fatalf("no retries under 25%% drop: ledger = %+v", l)
	}
	if w := r.recv.windows["machine-a"]; w == nil || w.Admitted != n {
		t.Fatalf("dedup window admitted = %v, want %d", w, n)
	}
}

// TestBackoffIsExponentialBoundedAndJittered: each attempt's delay doubles
// from 5ms up to the 1s cap, and lands in [d/2, d] by its entropy word.
func TestBackoffIsExponentialBoundedAndJittered(t *testing.T) {
	for attempt, want := range map[int]time.Duration{1: 5 * time.Millisecond, 2: 10 * time.Millisecond, 3: 20 * time.Millisecond, 4: 40 * time.Millisecond, 9: time.Second, 20: time.Second} {
		for r := uint64(0); r < 100; r += 7 {
			d := retryDelay(attempt, r)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d rand %d: backoff %v outside [%v, %v]", attempt, r, d, want/2, want)
			}
		}
	}
	// Jitter actually varies with the entropy word.
	if retryDelay(3, 1) == retryDelay(3, 1e9) {
		t.Fatal("backoff ignored its jitter source")
	}
}

// TestRemoteBreakerOpensWithinTripBudgetAndHalfOpensOnHeal walks the
// breaker around its full cycle: partition → consecutive deadline
// failures trip it open within TripBudget raises → open sheds instantly →
// cooldown half-opens → a healed probe closes it.
func TestRemoteBreakerOpensWithinTripBudgetAndHalfOpensOnHeal(t *testing.T) {
	r := twoMachines(t)
	faults := fault.NewLedger(fault.Policy{})
	tracer := trace.New(trace.Config{Capacity: 64})
	p := r.peer(func(c *PeerConfig) {
		c.Deadline = ms(30)
		c.MaxAttempts = 2
		c.Breaker = BreakerConfig{TripBudget: 3, Cooldown: ms(100)}
		c.Faults = faults
		c.Tracer = tracer
	})
	r.link.Partition("mac-a", "mac-b")

	// Trip budget is 3 consecutive failures; each raise times out
	// terminally (2 attempts), charging one failure.
	for i := 0; i < 3; i++ {
		if err := p.Raise("Remote.Ping", uint64(1)); err != nil {
			t.Fatalf("raise %d rejected before trip: %v", i, err)
		}
		r.run(t, ms(60))
	}
	if got := p.Breaker().State(); got != BreakerOpen {
		t.Fatalf("breaker = %v after trip budget, want open", got)
	}
	// Open circuit: raises shed locally without touching the wire.
	if err := p.Raise("Remote.Ping", uint64(1)); !errors.Is(err, ErrPeerOpen) {
		t.Fatalf("raise on open circuit: err = %v", err)
	}
	st := p.Stats()
	if st.TimedOut != 3 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want 3 timeouts and 1 shed", st)
	}
	// Shed visibility: the admission ledger accounts every rejection.
	if l := p.Ledger(); l.Submitted != 4 || l.Shed != 4 || l.Completed != 0 {
		t.Fatalf("ledger = %+v", l)
	}
	// The trip charged the peer's failure domain in the fault ledger.
	recs := faults.Records()
	if len(recs) != 1 || recs[0].Kind != fault.KindRemote || recs[0].Handler != "b" {
		t.Fatalf("fault ledger = %+v", recs)
	}

	// Heal, wait out the cooldown: the breaker half-opens lazily.
	r.link.Heal("mac-a", "mac-b")
	r.run(t, ms(120))
	if got := p.Breaker().State(); got != BreakerHalfOpen {
		t.Fatalf("breaker = %v after cooldown, want half-open", got)
	}
	// The probe raise goes through and closes the circuit.
	if err := p.Raise("Remote.Ping", uint64(9)); err != nil {
		t.Fatalf("probe raise: %v", err)
	}
	r.run(t, ms(100))
	if got := p.Breaker().State(); got != BreakerClosed {
		t.Fatalf("breaker = %v after probe success, want closed", got)
	}
	if st := p.Stats(); st.Delivered != 1 {
		t.Fatalf("probe not delivered: %+v", st)
	}
	// The tracer saw both transitions as breaker spans.
	var trips, closes int
	for _, sp := range tracer.Snapshot() {
		if sp.Kind != trace.KindBreaker {
			continue
		}
		switch int(sp.Detail & 0xFF) {
		case int(BreakerOpen):
			trips++
		case int(BreakerClosed):
			closes++
		}
	}
	if trips != 1 || closes != 1 {
		t.Fatalf("breaker spans: trips=%d closes=%d, want 1/1", trips, closes)
	}
}

// TestRemotePartitionDegradesAndReroutes is the partition-tolerance
// pillar: heartbeat misses declare the partition, the breaker force-opens,
// the degrader steps to the partitioned level, and bound raises re-route
// to their local fallbacks (or shed when essential-only).
func TestRemotePartitionDegradesAndReroutes(t *testing.T) {
	r := twoMachines(t)
	// Ladder entries are levels 1..n (level 0 is the implicit normal), so
	// index 0 is LevelTripped and index 1 is LevelPartitioned.
	deg := admit.NewDegrader([]admit.Level{
		{Name: "tripped", MinPriority: 3},
		{Name: "partitioned", MinPriority: 1},
	}, 1)
	p := r.peer(func(c *PeerConfig) {
		c.Deadline = ms(30)
		c.MaxAttempts = 2
		c.HeartbeatEvery = ms(10)
		c.HeartbeatMisses = 2
		c.Breaker = BreakerConfig{TripBudget: 100, Cooldown: ms(50)}
		c.Degrader = deg
	})
	// A local fallback event on machine A for optional work.
	var local atomic.Int64
	sig := rtti.Signature{Args: []rtti.Type{rtti.Word}}
	fb, err := r.a.Dispatcher.DefineEvent("Local.PingFallback", sig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Local.PingFallback", Sig: sig},
			Fn:   func(clo any, args []any) any { local.Add(1); return nil },
		}))
	if err != nil {
		t.Fatal(err)
	}

	// Healthy traffic starts the heartbeat chain and proves the route.
	if err := p.Raise("Remote.Ping", uint64(1)); err != nil {
		t.Fatal(err)
	}
	r.run(t, ms(25))
	if p.Stats().Delivered != 1 {
		t.Fatalf("warmup not delivered: %+v", p.Stats())
	}

	// Cut the wire. Two missed probes (10ms apart) declare the partition.
	r.link.Partition("mac-a", "mac-b")
	r.run(t, ms(60))
	if got := p.Breaker().State(); got != BreakerOpen {
		t.Fatalf("breaker = %v after heartbeat misses, want forced open", got)
	}
	if deg.Level() != LevelPartitioned {
		t.Fatalf("degrader level = %d (%s), want partitioned",
			deg.Level(), deg.LevelName(deg.Level()))
	}
	// Optional binding re-routes to its fallback; unbound optional sheds.
	if err := p.RaiseBound(Binding{Event: "Remote.Ping", Priority: 2, Fallback: fb},
		uint64(5)); err != nil {
		t.Fatalf("fallback reroute: %v", err)
	}
	if err := p.RaiseBound(Binding{Event: "Remote.Ping", Priority: 2},
		uint64(6)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("unbound optional raise: err = %v, want ErrDegraded", err)
	}
	if local.Load() != 1 {
		t.Fatalf("fallback fired %d times, want 1", local.Load())
	}
	st := p.Stats()
	if st.Rerouted != 1 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want 1 rerouted + 1 shed", st)
	}
	if st.HeartbeatMisses < 2 {
		t.Fatalf("heartbeat misses = %d, want >= 2", st.HeartbeatMisses)
	}

	// Heal. The next answered probe clears the partition; after cooldown
	// the half-open breaker closes on the following probe ack, and the
	// degrader steps back to normal.
	r.link.Heal("mac-a", "mac-b")
	r.run(t, ms(200))
	if got := p.Breaker().State(); got != BreakerClosed {
		t.Fatalf("breaker = %v after heal, want closed", got)
	}
	if deg.Level() != LevelNormal {
		t.Fatalf("degrader level = %d after heal, want normal", deg.Level())
	}
	// Remote traffic flows again.
	if err := p.Raise("Remote.Ping", uint64(3)); err != nil {
		t.Fatal(err)
	}
	r.run(t, ms(50))
	if got := p.Stats().Delivered; got != 2 {
		t.Fatalf("delivered = %d after heal, want 2", got)
	}
	p.Close()
	r.run(t, ms(100))
}

// TestRemoteCompiledInLocalBypassRaiseZeroAlloc is the cost gate: with the
// remote subsystem compiled in, serving, and a peer constructed, a purely
// local single-intrinsic bypass raise still completes in zero heap
// allocations — remoteness costs nothing until an event actually crosses
// the wire.
func TestRemoteCompiledInLocalBypassRaiseZeroAlloc(t *testing.T) {
	r := twoMachines(t)
	p := r.peer(nil)
	_ = p // constructed but unused: the gate is about presence, not traffic
	sig := rtti.Signature{Args: []rtti.Type{rtti.Word, rtti.Word}}
	var cell atomic.Uint64
	ev, err := r.a.Dispatcher.DefineEvent("Local.Fast", sig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Local.Fast", Sig: sig},
			Fn: func(clo any, args []any) any {
				cell.Store(args[0].(uint64) + args[1].(uint64))
				return nil
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	av := []any{uint64(1), uint64(2)}
	if n := testing.AllocsPerRun(1000, func() { _, _ = ev.Raise(av...) }); n != 0 {
		t.Errorf("local Raise(av...) allocates %v/op with remote compiled in, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _, _ = ev.Raise2(uint64(1), uint64(2)) }); n != 0 {
		t.Errorf("local Raise2 allocates %v/op with remote compiled in, want 0", n)
	}
}
