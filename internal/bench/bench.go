// Package bench is the shared experiment harness: it reconstructs each of
// the paper's measurements (§3.1-3.2) against the virtual-time cost model,
// so `spin tables`, the root benchmark suite, and EXPERIMENTS.md all draw
// from the same code.
package bench

import (
	"fmt"
	"sync/atomic"

	"spin/internal/codegen"
	"spin/internal/dispatch"
	"spin/internal/kernel"
	"spin/internal/netstack"
	"spin/internal/rtti"
	"spin/internal/scenario"
	"spin/internal/sched"
	"spin/internal/vtime"
)

var benchModule = rtti.NewModule("Bench")

// sigN builds a void signature with n WORD parameters, the shape Table 1
// sweeps over.
func sigN(n int) rtti.Signature {
	args := make([]rtti.Type, n)
	for i := range args {
		args[i] = rtti.Word
	}
	return rtti.Sig(nil, args...)
}

// newMeteredDispatcher returns a dispatcher wired to a fresh Alpha-model
// meter.
func newMeteredDispatcher() (*dispatch.Dispatcher, *vtime.Clock) {
	clock := &vtime.Clock{}
	cpu := vtime.NewCPU(clock, vtime.AlphaModel())
	d := dispatch.New(dispatch.WithCPU(cpu))
	return d, clock
}

// wordArgs builds a raise argument vector of n words.
func wordArgs(n int) []any {
	args := make([]any, n)
	for i := range args {
		args[i] = uint64(i)
	}
	return args
}

// procCallLatency reconstructs Table 1's "Modula-3 procedure call" column:
// an event with only its intrinsic handler, dispatched as a direct call.
func procCallLatency(args int) (vtime.Duration, error) {
	d, clock := newMeteredDispatcher()
	ev, err := d.DefineEvent("Bench.Proc", sigN(args), dispatch.WithIntrinsic(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Bench.Proc", Module: benchModule, Sig: sigN(args)},
		Fn:   func(any, []any) any { return nil },
	}))
	if err != nil {
		return 0, err
	}
	av := wordArgs(args)
	before := clock.Now()
	if _, err := ev.Raise(av...); err != nil {
		return 0, err
	}
	return clock.Now().Sub(before), nil
}

// dispatchLatency reconstructs one Table 1 cell: the cost of raising an
// event with the given number of arguments and handlers. Guards compare a
// global variable to a constant and return true; handlers return without
// performing any work. inline selects whether the code generator may
// inline them.
func dispatchLatency(args, handlers int, inline bool) (vtime.Duration, error) {
	d, clock := newMeteredDispatcher()
	ev, err := d.DefineEvent("Bench.Event", sigN(args))
	if err != nil {
		return 0, err
	}
	var cell atomic.Uint64
	for i := 0; i < handlers; i++ {
		var h dispatch.Handler
		var g dispatch.Guard
		if inline {
			g = dispatch.Guard{Pred: codegen.GlobalEq(&cell, 0)}
			h = dispatch.Handler{
				Proc:   &rtti.Proc{Name: "Bench.H", Module: benchModule, Sig: sigN(args)},
				Inline: codegen.Nop(),
			}
		} else {
			g = dispatch.Guard{
				Proc: &rtti.Proc{Name: "Bench.G", Module: benchModule, Functional: true,
					Sig: rtti.Sig(rtti.Bool, sigN(args).Args...)},
				Fn: func(clo any, a []any) bool { return cell.Load() == 0 },
			}
			h = dispatch.Handler{
				Proc: &rtti.Proc{Name: "Bench.H", Module: benchModule, Sig: sigN(args)},
				Fn:   func(any, []any) any { return nil },
			}
		}
		if _, err := ev.Install(h, dispatch.WithGuard(g)); err != nil {
			return 0, err
		}
	}
	av := wordArgs(args)
	before := clock.Now()
	if _, err := ev.Raise(av...); err != nil {
		return 0, err
	}
	return clock.Now().Sub(before), nil
}

// Table1 regenerates the full Table 1 grid. The result maps
// [args][handlers] to {noInline, inline} in microseconds, plus the
// procedure-call column.
type Table1Result struct {
	Args     []int
	Handlers []int
	ProcCall map[int]float64    // args -> us
	NoInline map[[2]int]float64 // {args, handlers} -> us
	Inline   map[[2]int]float64 // {args, handlers} -> us
}

// Table1 runs the grid the paper reports: 0/1/5 arguments crossed with
// 1/5/10/50 handlers.
func Table1() (*Table1Result, error) {
	r := &Table1Result{
		Args:     []int{0, 1, 5},
		Handlers: []int{1, 5, 10, 50},
		ProcCall: map[int]float64{},
		NoInline: map[[2]int]float64{},
		Inline:   map[[2]int]float64{},
	}
	for _, a := range r.Args {
		d, err := procCallLatency(a)
		if err != nil {
			return nil, err
		}
		r.ProcCall[a] = vtime.InMicros(d)
		for _, h := range r.Handlers {
			ni, err := dispatchLatency(a, h, false)
			if err != nil {
				return nil, err
			}
			inl, err := dispatchLatency(a, h, true)
			if err != nil {
				return nil, err
			}
			r.NoInline[[2]int{a, h}] = vtime.InMicros(ni)
			r.Inline[[2]int{a, h}] = vtime.InMicros(inl)
		}
	}
	return r, nil
}

// InstallOverhead reconstructs §3.1 "Installation overhead": the cost of
// the first installation and the cumulative cost of installing n handlers
// on one event (quadratic, since each install regenerates the plan).
func InstallOverhead(n int) (first, total vtime.Duration, err error) {
	d, clock := newMeteredDispatcher()
	ev, err := d.DefineEvent("Bench.Install", sigN(0))
	if err != nil {
		return 0, 0, err
	}
	h := dispatch.Handler{
		Proc: &rtti.Proc{Name: "Bench.H", Module: benchModule, Sig: sigN(0)},
		Fn:   func(any, []any) any { return nil },
	}
	start := clock.Now()
	for i := 0; i < n; i++ {
		before := clock.Now()
		if _, err := ev.Install(h); err != nil {
			return 0, 0, err
		}
		if i == 0 {
			first = clock.Now().Sub(before)
		}
	}
	return first, clock.Now().Sub(start), nil
}

// AsyncOverhead reconstructs the §3.1 asynchronous-event measurement: the
// additional latency an asynchronous raise imposes on the raiser (thread
// creation), as a function of argument count.
func AsyncOverhead(args int) (vtime.Duration, error) {
	clock := &vtime.Clock{}
	cpu := vtime.NewCPU(clock, vtime.AlphaModel())
	sim := vtime.NewSimulator(clock)
	d := dispatch.New(dispatch.WithCPU(cpu), dispatch.WithSimulator(sim))
	ev, err := d.DefineEvent("Bench.Async", sigN(args))
	if err != nil {
		return 0, err
	}
	if _, err := ev.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Bench.H", Module: benchModule, Sig: sigN(args)},
		Fn:   func(any, []any) any { return nil },
	}); err != nil {
		return 0, err
	}
	av := wordArgs(args)
	before := clock.Now()
	if err := ev.RaiseAsync(av...); err != nil {
		return 0, err
	}
	latency := clock.Now().Sub(before)
	sim.Run(0) // let the detached handler run
	return latency, nil
}

// echoRig is the Table 2 experiment: two machines on a 10 Mb/s Ethernet
// exchanging 8-byte UDP datagrams, with additional always-false guards
// installed on both machines' Udp.PacketArrived events.
type echoRig struct {
	A, B   *kernel.Machine
	SA, SB *netstack.Stack
	client *netstack.UDPSocket
	server *netstack.UDPSocket

	rtt    vtime.Duration
	replyD bool
}

// newEchoRig builds the two-machine echo setup with extraGuards inactive
// endpoints per machine ("the experiment has one active endpoint and many
// inactive ones, yet all guards are evaluated for each packet"). optimized
// selects inline predicate port guards, whose run of equalities dispatches
// through the guard index — the configuration the paper's future-work
// paragraph predicts "would be effective for the port comparison required
// by this example".
func newEchoRig(extraGuards int, optimized bool) (*echoRig, error) {
	rig, err := scenario.Wire(
		scenario.Host{Kernel: kernel.Config{Name: "a", Metered: true},
			Net: netstack.Config{IP: "10.0.0.1", InlinePortGuards: optimized}, MAC: "mac-a"},
		scenario.Host{Kernel: kernel.Config{Name: "b"},
			Net: netstack.Config{IP: "10.0.0.2", Prefix: "B:", InlinePortGuards: optimized}, MAC: "mac-b"},
	)
	if err != nil {
		return nil, err
	}
	a, b := rig.Nodes[0].Machine, rig.Nodes[1].Machine
	sa, sb := rig.Nodes[0].Stack, rig.Nodes[1].Stack
	r := &echoRig{A: a, B: b, SA: sa, SB: sb}

	// The inactive endpoints: handlers whose guards discriminate on
	// ports nobody sends to, so they evaluate to false on every packet.
	pktSig := rtti.Sig(nil, rtti.Word, netstack.PacketType)
	for _, s := range []*netstack.Stack{sa, sb} {
		for i := 0; i < extraGuards; i++ {
			port := uint16(40000 + i)
			_, err := s.UDPArrived.Install(dispatch.Handler{
				Proc: &rtti.Proc{Name: fmt.Sprintf("Bench.Inactive%d", i),
					Module: benchModule, Sig: pktSig},
				Fn: func(any, []any) any { return nil },
			}, dispatch.WithGuard(s.PortGuard("Bench.InactiveGuard", port)))
			if err != nil {
				return nil, err
			}
		}
	}

	if r.client, err = sa.BindUDP(5000); err != nil {
		return nil, err
	}
	if r.server, err = sb.BindUDP(7); err != nil {
		return nil, err
	}

	// Echo server strand on B.
	b.Sched.Spawn("echo", 1, func(st *sched.Strand) sched.Status {
		for {
			pkt, ok := r.server.Recv()
			if !ok {
				break
			}
			_ = r.server.Send(pkt.SrcIP, pkt.SrcPort, pkt.Payload)
		}
		r.server.AwaitPacket(st)
		return sched.Block
	})
	// Client strand on A records the roundtrip.
	a.Sched.Spawn("client", 1, func(st *sched.Strand) sched.Status {
		if _, ok := r.client.Recv(); ok {
			r.replyD = true
			return sched.Done
		}
		r.client.AwaitPacket(st)
		return sched.Block
	})
	a.Sim.Run(0) // settle the spawn pumps
	return r, nil
}

// roundtrip sends one 8-byte datagram and runs the simulation until the
// reply returns, reporting the roundtrip latency.
func (r *echoRig) roundtrip() (vtime.Duration, error) {
	r.replyD = false
	start := r.A.Clock.Now()
	if err := r.client.Send("10.0.0.2", 7, []byte("12345678")); err != nil {
		return 0, err
	}
	r.A.Sim.Run(2_000_000)
	if !r.replyD {
		return 0, fmt.Errorf("bench: echo reply never arrived")
	}
	return r.A.Clock.Now().Sub(start), nil
}

// Table2Roundtrip measures the UDP roundtrip with the given total number of
// guards on the packet event (1 active + guards-1 inactive), reproducing
// Table 2.
func Table2Roundtrip(guards int) (vtime.Duration, error) {
	if guards < 1 {
		guards = 1
	}
	rig, err := newEchoRig(guards-1, false)
	if err != nil {
		return 0, err
	}
	// Discard a warm-up trip (the client strand's Done state machine is
	// one-shot, so re-arm via a fresh rig per measurement instead).
	return rig.roundtrip()
}

// Table2RoundtripOptimized is Table2Roundtrip through the guard index with
// inline port guards: the per-guard slope collapses.
func Table2RoundtripOptimized(guards int) (vtime.Duration, error) {
	if guards < 1 {
		guards = 1
	}
	rig, err := newEchoRig(guards-1, true)
	if err != nil {
		return 0, err
	}
	return rig.roundtrip()
}

// MicroOverhead reconstructs the §3.1 claim that event processing adds
// 10-15% to basic system services. It measures a null system call through
// the Table 3 dispatcher population (three handlers, two guards) against
// the same operation bound directly, and likewise a scheduler context
// switch with Strand.Run's population (four handlers, three guards)
// against a bare switch.
type MicroResult struct {
	SyscallDirect, SyscallEvented vtime.Duration
	ThreadDirect, ThreadEvented   vtime.Duration
}

// SyscallOverheadPct returns the relative event overhead on the syscall
// path in percent.
func (m *MicroResult) SyscallOverheadPct() float64 {
	return 100 * float64(m.SyscallEvented-m.SyscallDirect) / float64(m.SyscallDirect)
}

// ThreadOverheadPct returns the relative event overhead on the scheduling
// path in percent.
func (m *MicroResult) ThreadOverheadPct() float64 {
	return 100 * float64(m.ThreadEvented-m.ThreadDirect) / float64(m.ThreadDirect)
}

// Micro runs both microbenchmarks.
func Micro() (*MicroResult, error) {
	out := &MicroResult{}

	// Null system call, direct: trap entry plus one direct call.
	{
		clock := &vtime.Clock{}
		cpu := vtime.NewCPU(clock, vtime.AlphaModel())
		before := clock.Now()
		cpu.Charge(vtime.SyscallTrap)
		cpu.Charge(vtime.CallDirect)
		cpu.ChargeN(vtime.CallDirectArg, 2)
		out.SyscallDirect = clock.Now().Sub(before)
	}
	// Null system call, evented: trap entry plus the MachineTrap.Syscall
	// dispatch with Table 3's population (3 handlers, 2 guards; one
	// guard admits the caller).
	{
		d, clock := newMeteredDispatcher()
		cpu := d.CPU()
		sig := sigN(2)
		ev, err := d.DefineEvent("Bench.Syscall", sig)
		if err != nil {
			return nil, err
		}
		admit := dispatch.Guard{
			Proc: &rtti.Proc{Name: "Bench.Admit", Module: benchModule, Functional: true,
				Sig: rtti.Sig(rtti.Bool, sig.Args...)},
			Fn: func(any, []any) bool { return true },
		}
		reject := dispatch.Guard{
			Proc: &rtti.Proc{Name: "Bench.Reject", Module: benchModule, Functional: true,
				Sig: rtti.Sig(rtti.Bool, sig.Args...)},
			Fn: func(any, []any) bool { return false },
		}
		nullH := dispatch.Handler{
			Proc: &rtti.Proc{Name: "Bench.Null", Module: benchModule, Sig: sig},
			Fn:   func(any, []any) any { return nil },
		}
		if _, err := ev.Install(nullH, dispatch.WithGuard(admit)); err != nil {
			return nil, err
		}
		if _, err := ev.Install(nullH, dispatch.WithGuard(reject)); err != nil {
			return nil, err
		}
		if _, err := ev.Install(nullH); err != nil { // unguarded tracer
			return nil, err
		}
		before := clock.Now()
		cpu.Charge(vtime.SyscallTrap)
		if _, err := ev.Raise(uint64(1), uint64(2)); err != nil {
			return nil, err
		}
		out.SyscallEvented = clock.Now().Sub(before)
	}

	// Context switch, direct: the switch cost plus a direct call.
	{
		clock := &vtime.Clock{}
		cpu := vtime.NewCPU(clock, vtime.AlphaModel())
		before := clock.Now()
		cpu.Charge(vtime.ContextSwitch)
		cpu.Charge(vtime.CallDirect)
		cpu.ChargeN(vtime.CallDirectArg, 2)
		out.ThreadDirect = clock.Now().Sub(before)
	}
	// Context switch, evented: Strand.Run with 4 handlers, 3 guards.
	{
		d, clock := newMeteredDispatcher()
		cpu := d.CPU()
		sig := sigN(2)
		ev, err := d.DefineEvent("Bench.Run", sig, dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Bench.Run", Module: benchModule, Sig: sig},
			Fn:   func(any, []any) any { return nil },
		}))
		if err != nil {
			return nil, err
		}
		h := dispatch.Handler{
			Proc: &rtti.Proc{Name: "Bench.Switch", Module: benchModule, Sig: sig},
			Fn:   func(any, []any) any { return nil },
		}
		g := dispatch.Guard{
			Proc: &rtti.Proc{Name: "Bench.SwitchG", Module: benchModule, Functional: true,
				Sig: rtti.Sig(rtti.Bool, sig.Args...)},
			Fn: func(any, []any) bool { return true },
		}
		for i := 0; i < 3; i++ {
			if _, err := ev.Install(h, dispatch.WithGuard(g)); err != nil {
				return nil, err
			}
		}
		before := clock.Now()
		cpu.Charge(vtime.ContextSwitch)
		if _, err := ev.Raise(uint64(1), uint64(2)); err != nil {
			return nil, err
		}
		out.ThreadEvented = clock.Now().Sub(before)
	}
	return out, nil
}
