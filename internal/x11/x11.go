// Package x11 is the end-to-end document-preview workload of §3.2
// "Application performance": a machine running SPIN hosts an X11 server
// (on the Digital UNIX emulator); a second machine runs ghostview,
// processing a PostScript document and shipping page images over TCP to
// the X server, which renders them.
//
// Running the workload regenerates Table 3 (the major events raised, with
// counts, cumulative handling time, and handler/guard population) and the
// §3.2 time breakdown (total / idle / X11 / kernel / events).
//
// The extension population is arranged to match the paper's Table 3
// handler and guard counts: the IP stack's layer handlers, an ARP and a
// RARP watcher on Ether, ICMP/IGMP/RSVP handlers on IP, five bound UDP
// ports plus a monitor, the OSF port watcher on TCP, the Mach and OSF
// emulators plus an asynchronous per-application system call tracer on
// MachineTrap.Syscall (§2.6 mentions exactly this tracer), user-space
// thread save/restore handlers and a profiler on Strand.Run, and a select
// monitor on Events.EventNotify.
package x11

import (
	"fmt"
	"strings"

	"spin/internal/codegen"
	"spin/internal/dispatch"
	"spin/internal/emu/mach"
	"spin/internal/emu/osf"
	"spin/internal/fs"
	"spin/internal/kernel"
	"spin/internal/netstack"
	"spin/internal/netwire"
	"spin/internal/rtti"
	"spin/internal/scenario"
	"spin/internal/sched"
	"spin/internal/vtime"
)

// Params tunes the preview workload. Zero values select the defaults,
// which are calibrated so the generated trace approximates the paper's
// Table 3 and §3.2 breakdown; EXPERIMENTS.md records measured-vs-paper.
type Params struct {
	// Pages is the number of page images previewed.
	Pages int
	// PageBytes is the size of one page image.
	PageBytes int
	// PageInterval is ghostview's PostScript processing time per page
	// (this is what makes the SPIN machine mostly idle).
	PageInterval vtime.Duration
	// ReplyEvery makes the X server send a small reply (X events,
	// exposure notifications) after every N data reads.
	ReplyEvery int
	// ReplyBytes is the reply size.
	ReplyBytes int
	// FontReadsPerPage is the number of font/glyph file reads the X
	// server performs per page.
	FontReadsPerPage int
	// RenderPerPage is X11-server (user account) rendering time per page.
	RenderPerPage vtime.Duration
	// DecodePerPage is in-kernel image decode/copy time per page.
	DecodePerPage vtime.Duration
	// UDPDatagrams is the number of background name-service datagrams.
	UDPDatagrams int
	// ArpFrames is the number of non-IP broadcast frames on the wire.
	ArpFrames int
	// WakeLatency is the SPIN machine's scheduler dispatch latency.
	WakeLatency vtime.Duration
	// DaemonPeriod is the background daemon strand's tick period; it
	// pads Strand.Run to the paper's scheduling-operation volume.
	DaemonPeriod vtime.Duration
}

// defaultParams returns the calibrated workload.
func defaultParams() Params {
	return Params{
		Pages:            12,
		PageBytes:        285_000,
		PageInterval:     vtime.Micros(1_800_000), // 1.8s of PostScript processing per page
		ReplyEvery:       16,
		ReplyBytes:       32,
		FontReadsPerPage: 25,
		RenderPerPage:    vtime.Micros(350_000),
		DecodePerPage:    vtime.Micros(540_000),
		UDPDatagrams:     24,
		ArpFrames:        7,
		WakeLatency:      vtime.Micros(5_000),
		DaemonPeriod:     vtime.Micros(1_540),
	}
}

func (p *Params) fill() {
	d := defaultParams()
	if p.Pages == 0 {
		p.Pages = d.Pages
	}
	if p.PageBytes == 0 {
		p.PageBytes = d.PageBytes
	}
	if p.PageInterval == 0 {
		p.PageInterval = d.PageInterval
	}
	if p.ReplyEvery == 0 {
		p.ReplyEvery = d.ReplyEvery
	}
	if p.ReplyBytes == 0 {
		p.ReplyBytes = d.ReplyBytes
	}
	if p.FontReadsPerPage == 0 {
		p.FontReadsPerPage = d.FontReadsPerPage
	}
	if p.RenderPerPage == 0 {
		p.RenderPerPage = d.RenderPerPage
	}
	if p.DecodePerPage == 0 {
		p.DecodePerPage = d.DecodePerPage
	}
	if p.UDPDatagrams == 0 {
		p.UDPDatagrams = d.UDPDatagrams
	}
	if p.ArpFrames == 0 {
		p.ArpFrames = d.ArpFrames
	}
	if p.WakeLatency == 0 {
		p.WakeLatency = d.WakeLatency
	}
	if p.DaemonPeriod == 0 {
		p.DaemonPeriod = d.DaemonPeriod
	}
}

// Row is one line of the regenerated Table 3.
type Row struct {
	Event    string
	Raised   int64
	Time     vtime.Duration
	Handlers int
	Guards   int
}

// Result is the workload outcome.
type Result struct {
	// Rows are the Table 3 event rows, in the paper's order.
	Rows []Row
	// Total is the preview wall time; Idle/User/Kernel/Events partition
	// the SPIN machine's share of it (§3.2's breakdown).
	Total, Idle, User, Kernel, Events vtime.Duration
	// PagesShown counts fully rendered pages.
	PagesShown int
	// BytesReceived is the page-image volume delivered to the X server.
	BytesReceived int64
	// TracedSyscalls counts records produced by the asynchronous
	// per-application system call tracer.
	TracedSyscalls int64
}

// String renders the result in the paper's Table 3 layout plus the
// breakdown paragraph.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %7s %8s %9s %7s\n", "Event name", "raised", "time(s)", "handlers", "guards")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-28s %7d %8.2f %9d %7d\n",
			row.Event, row.Raised, float64(row.Time)/1e9, row.Handlers, row.Guards)
	}
	fmt.Fprintf(&sb, "\ntotal %.2fs: idle %.2fs, X11 server %.2fs, kernel %.2fs, events %.3fs\n",
		float64(r.Total)/1e9, float64(r.Idle)/1e9, float64(r.User)/1e9,
		float64(r.Kernel)/1e9, float64(r.Events)/1e9)
	return sb.String()
}

// world is the assembled two-machine scenario.
type world struct {
	onCollect    func(*Result)
	onDaemonTick func()
	// census holds the handler/guard population captured mid-preview;
	// Table 3 reports the population while the workload runs, and the X
	// server tears its sockets down at the end.
	census map[string][2]int

	p      Params
	spin   *kernel.Machine // machine A: SPIN + X11 server
	remote *kernel.Machine // machine B: ghostview
	sa, sb *netstack.Stack
	nicB   *netwire.NIC
	fsA    *fs.FS
	emu    *osf.Emulator

	traced int64
}

// Run executes the preview workload and reports the regenerated Table 3
// and breakdown.
func Run(p Params) (*Result, error) {
	p.fill()
	w := &world{p: p}
	if err := w.setup(); err != nil {
		return nil, err
	}
	w.startGhostview()
	w.startXServer()
	w.scheduleBackgroundTraffic()
	half := vtime.Duration(w.p.Pages) * w.p.PageInterval / 2
	w.spin.Sim.After(half, w.snapshotCensus)
	w.spin.Sim.Run(8_000_000)
	return w.collect(), nil
}

// setup boots both machines, loads the extensions, and installs the
// Table 3 handler population.
func (w *world) setup() error {
	rig, err := scenario.Wire(
		scenario.Host{Kernel: kernel.Config{Name: "spin", Metered: true},
			Net: netstack.Config{IP: "10.1.0.1"}, MAC: "mac-spin"},
		scenario.Host{Kernel: kernel.Config{Name: "ghost"},
			Net: netstack.Config{IP: "10.1.0.2", Prefix: "ghost:"}, MAC: "mac-ghost"},
	)
	if err != nil {
		return err
	}
	w.spin, w.remote = rig.Nodes[0].Machine, rig.Nodes[1].Machine
	w.sa, w.sb, w.nicB = rig.Nodes[0].Stack, rig.Nodes[1].Stack, rig.Nodes[1].NIC
	w.spin.Sched.WakeLatency = w.p.WakeLatency
	if w.fsA, err = fs.New(w.spin.Dispatcher, w.spin.CPU, ""); err != nil {
		return err
	}
	// Seed the font files the X server reads while rendering.
	w.fsA.Put("/usr/lib/X11/fonts/fonts.dir", []byte("fixed.fon 7x13.fon"))
	w.fsA.Put("/usr/lib/X11/fonts/fixed.fon", make([]byte, 64*1024))

	// Load the OSF emulator (the X server's personality) and the Mach
	// emulator (present, guarded, no Mach tasks running — its guard
	// contributes to the Syscall event's population).
	w.emu = osf.New(w.spin.Trap, w.sa, w.fsA)
	if _, err = w.spin.LoadExtension(w.emu.Image()); err != nil {
		return err
	}
	if _, err = w.spin.LoadExtension(mach.Image(&mach.Emulator{})); err != nil {
		return err
	}
	return w.installPopulation()
}

// installPopulation installs the extra handlers and guards that make each
// event's handler/guard census match Table 3.
func (w *world) installPopulation() error {
	pktSig := rtti.Sig(nil, rtti.Word, netstack.PacketType)
	nop := func(any, []any) any { return nil }
	mod := rtti.NewModule("PreviewExtensions")

	install := func(ev *dispatch.Event, name string, preds ...*codegen.Pred) error {
		opts := make([]dispatch.InstallOption, 0, len(preds))
		for _, p := range preds {
			opts = append(opts, dispatch.WithGuard(dispatch.Guard{Pred: p}))
		}
		_, err := ev.Install(dispatch.Handler{
			Proc: &rtti.Proc{Name: name, Module: mod, Sig: ev.Signature()},
			Fn:   nop,
		}, opts...)
		return err
	}
	_ = pktSig

	// Ether.PacketArrived: intrinsic + IP(1g) -> add ARP and RARP
	// watchers => 4 handlers, 3 guards.
	if err := install(w.sa.EtherArrived, "Arp.EtherInput", codegen.ArgEq(0, 0x0806)); err != nil {
		return err
	}
	if err := install(w.sa.EtherArrived, "Rarp.EtherInput", codegen.ArgEq(0, 0x8035)); err != nil {
		return err
	}
	// Ip.PacketArrived: intrinsic + UDP(1g) + TCP(1g) -> add ICMP, IGMP,
	// RSVP => 6 handlers, 5 guards.
	for _, proto := range []struct {
		name string
		num  uint64
	}{{"Icmp.IpInput", 1}, {"Igmp.IpInput", 2}, {"Rsvp.IpInput", 46}} {
		if err := install(w.sa.IPArrived, proto.name, codegen.ArgEq(0, proto.num)); err != nil {
			return err
		}
	}
	// Udp.PacketArrived: the X server binds port 53 through a system
	// call; four more services bind directly; plus one unguarded
	// monitor => 6 handlers, 5 guards.
	for _, port := range []uint16{111, 512, 520, 514} {
		if _, err := w.sa.BindUDP(port); err != nil {
			return err
		}
	}
	if err := install(w.sa.UDPArrived, "UdpMon.Input"); err != nil {
		return err
	}
	// Tcp.PacketArrived: intrinsic demux + the OSF port watcher
	// => 2 handlers, 1 guard (already installed by the emulator image).

	// MachineTrap.Syscall: OSF(1g) + Mach(1g) + the asynchronous
	// per-application system call tracer (§2.6) => 3 handlers, 2 guards.
	sysEv, _ := w.spin.Dispatcher.Lookup("MachineTrap.Syscall")
	_, err := sysEv.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "UnixServer.SyscallTracer", Module: mod, Sig: sysEv.Signature()},
		Fn: func(any, []any) any {
			w.traced++
			return nil
		},
	}, dispatch.Async(), dispatch.Last())
	if err != nil {
		return err
	}

	// Strand.Run: intrinsic + user-space thread save/restore + profiler
	// => 4 handlers, 3 guards.
	runEv := w.spin.Sched.RunEvent
	if err := install(runEv, "UserThreads.Save", codegen.ArgLt(0, 1<<20)); err != nil {
		return err
	}
	if err := install(runEv, "UserThreads.Restore", codegen.ArgLt(0, 1<<20)); err != nil {
		return err
	}
	if err := install(runEv, "Profiler.Sample", codegen.ArgNe(0, 0)); err != nil {
		return err
	}
	// Events.EventNotify: intrinsic + a select monitor carrying two
	// guards => 2 handlers, 2 guards.
	if err := install(w.emu.EventNotify, "SelectMon.Notify",
		codegen.ArgNe(0, 0), codegen.ArgLt(0, 1<<20)); err != nil {
		return err
	}
	return nil
}

// scheduleBackgroundTraffic produces the workload's noise: name-service
// datagrams and ARP broadcasts spread across the preview, plus the
// background daemon strand that pads scheduling activity.
func (w *world) scheduleBackgroundTraffic() {
	total := vtime.Duration(w.p.Pages+1) * w.p.PageInterval
	udpSock, _ := w.sb.BindUDP(5353)
	for i := 0; i < w.p.UDPDatagrams; i++ {
		at := total / vtime.Duration(w.p.UDPDatagrams+1) * vtime.Duration(i+1)
		w.spin.Sim.After(at, func() {
			_ = udpSock.Send("10.1.0.1", 53, []byte("name-query"))
		})
	}
	for i := 0; i < w.p.ArpFrames; i++ {
		at := total / vtime.Duration(w.p.ArpFrames+1) * vtime.Duration(i+1)
		w.spin.Sim.After(at, func() {
			_ = w.nicB.Send(&netwire.Frame{Dst: "mac-spin", EtherType: netwire.TypeARP, Size: 28})
		})
	}
	// The daemon strand: wakes on a timer for the lifetime of the
	// preview, modelling the emulator's housekeeping threads.
	deadline := w.spin.Clock.Now().Add(total)
	w.spin.Sched.Spawn("unix-daemon", 2, func(st *sched.Strand) sched.Status {
		if w.spin.Clock.Now() >= deadline {
			return sched.Done
		}
		if w.onDaemonTick != nil {
			w.onDaemonTick()
		}
		_ = w.spin.Sched.WakeAfter(st, w.p.DaemonPeriod)
		return sched.Block
	})
}

// startGhostview runs the document producer on the remote machine.
func (w *world) startGhostview() {
	page := make([]byte, w.p.PageBytes)
	var conn *netstack.TCPConn
	sent := 0
	waiting := false
	started := false
	w.remote.Sched.Spawn("ghostview", 1, func(st *sched.Strand) sched.Status {
		if !started {
			// The user starts ghostview once the X server is up;
			// give the server time to acquire its display ports (the
			// simulated TCP does not retransmit a SYN that arrives
			// before the listener exists).
			started = true
			_ = w.remote.Sched.WakeAfter(st, vtime.Micros(50_000))
			return sched.Block
		}
		if conn == nil {
			var err error
			conn, err = w.sb.DialTCP("10.1.0.1", 6000)
			if err != nil {
				return sched.Done
			}
		}
		if !conn.Established() {
			conn.AwaitEstablished(st)
			return sched.Block
		}
		// Drain replies (X events) so they do not pile up.
		for {
			if _, ok := conn.Recv(); !ok {
				break
			}
		}
		if sent == w.p.Pages {
			_ = conn.Close()
			return sched.Done
		}
		if !waiting {
			// Process the next PostScript page, then ship it.
			waiting = true
			_ = w.remote.Sched.WakeAfter(st, w.p.PageInterval)
			return sched.Block
		}
		waiting = false
		_ = conn.Send(page)
		sent++
		return sched.Yield
	})
}

// startXServer runs the display server on the SPIN machine as an OSF task.
func (w *world) startXServer() {
	var (
		listenFDs []uint64
		connFD    uint64
		udpFD     uint64
		fontFD    uint64
		setup     bool
		pageBytes int
		reads     int
		pages     int
		received  int64
		closed    bool
	)
	e := w.emu
	var xStrand *sched.Strand
	xStrand = w.spin.Sched.Spawn("X11-server", 1, func(st *sched.Strand) sched.Status {
		if !setup {
			setup = true
			// The X server runs as a Digital UNIX process: attach it
			// to the emulator with its own address space.
			e.Attach(st, w.spin.VM.NewSpace())
			// The X server acquires its three TCP ports (display
			// transports): Table 3's three AddTcpPortHandler raises.
			for _, port := range []uint64{6000, 6001, 6002} {
				fd, _ := e.Sys(st, osf.SysSocket, nil, osf.SockStream)
				_, _ = e.Sys(st, osf.SysBind, nil, fd, port)
				_, _ = e.Sys(st, osf.SysListen, nil, fd)
				listenFDs = append(listenFDs, fd)
			}
			udpFD, _ = e.Sys(st, osf.SysSocket, nil, osf.SockDgram)
			_, _ = e.Sys(st, osf.SysBind, nil, udpFD, 53)
			fontFD, _ = e.Sys(st, osf.SysOpen, &osf.Extra{Str: "/usr/lib/X11/fonts/fixed.fon"})
		}

		// One select per dispatch: the X server's main loop.
		mask, _ := e.Sys(st, osf.SysSelect, nil, listenFDs[0], connFD, udpFD)

		if connFD == 0 {
			fd, errno := e.Sys(st, osf.SysAccept, nil, listenFDs[0])
			if errno == osf.EWOULDBLOCK {
				_ = e.AwaitReadable(st, listenFDs[0])
				return sched.Block
			}
			connFD = fd
		}

		// Drain the name-service socket when select flagged it.
		if mask&4 != 0 {
			for {
				if _, errno := e.Sys(st, osf.SysRecvFrom, &osf.Extra{}, udpFD); errno != osf.ESUCCESS {
					break
				}
			}
		}

		// Read page-image data until the socket would block.
		for {
			ex := &osf.Extra{}
			n, errno := e.Sys(st, osf.SysRead, ex, connFD, 65536)
			if errno == osf.EWOULDBLOCK {
				break
			}
			if errno != osf.ESUCCESS {
				break
			}
			if n == 0 { // EOF: ghostview finished
				if !closed {
					closed = true
					for _, fd := range listenFDs {
						_, _ = e.Sys(st, osf.SysClose, nil, fd)
					}
					_, _ = e.Sys(st, osf.SysClose, nil, connFD)
					_, _ = e.Sys(st, osf.SysClose, nil, udpFD)
				}
				return sched.Done
			}
			received += int64(n)
			pageBytes += int(n)
			reads++
			if reads%w.p.ReplyEvery == 0 {
				// X events and exposure replies back to the client.
				_, _ = e.Sys(st, osf.SysWrite,
					&osf.Extra{Buf: make([]byte, w.p.ReplyBytes)}, connFD)
			}
			if pageBytes >= w.p.PageBytes {
				pageBytes -= w.p.PageBytes
				pages++
				w.renderPage(st, fontFD)
			}
		}
		if conn, ok := e.ConnOf(st, connFD); ok && conn.EOF() && !closed {
			closed = true
			return sched.Done
		}
		_ = e.AwaitReadable(st, connFD)
		return sched.Block
	})
	_ = xStrand
	w.onCollect = func(r *Result) {
		r.PagesShown = pages
		r.BytesReceived = received
	}
}

// renderPage charges the per-page work: font file reads (kernel via fs),
// in-kernel decode, and user-space rendering.
func (w *world) renderPage(st *sched.Strand, fontFD uint64) {
	for i := 0; i < w.p.FontReadsPerPage; i++ {
		_, _ = w.emu.Sys(st, osf.SysRead, &osf.Extra{}, fontFD, 512)
	}
	w.spin.CPU.SpendTo(vtime.AccountKernel, w.p.DecodePerPage)
	w.spin.CPU.SpendTo(vtime.AccountUser, w.p.RenderPerPage)
}

// snapshotCensus records each event's handler/guard population while the
// preview is in full swing.
func (w *world) snapshotCensus() {
	w.census = make(map[string][2]int)
	for _, ev := range w.spin.Dispatcher.Events() {
		s := ev.Stats()
		w.census[ev.Name()] = [2]int{s.Handlers, s.Guards}
	}
}

// collect assembles the result after the simulation drains.
func (w *world) collect() *Result {
	r := &Result{}
	if w.onCollect != nil {
		w.onCollect(r)
	}
	names := []string{
		"Ether.PacketArrived",
		"Ip.PacketArrived",
		"Udp.PacketArrived",
		"Tcp.PacketArrived",
		"OsfNet.DelTcpPortHandler",
		"OsfNet.AddTcpPortHandler",
		"MachineTrap.Syscall",
		"Strand.Run",
		"Events.EventNotify",
	}
	for _, n := range names {
		ev, ok := w.spin.Dispatcher.Lookup(n)
		if !ok {
			continue
		}
		s := ev.Stats()
		row := Row{Event: n, Raised: s.Raised, Time: s.Time,
			Handlers: s.Handlers, Guards: s.Guards}
		if hg, ok := w.census[n]; ok {
			row.Handlers, row.Guards = hg[0], hg[1]
		}
		r.Rows = append(r.Rows, row)
	}
	r.Total = w.spin.Elapsed()
	b := w.spin.CPU.Breakdown()
	r.User = b.Of(vtime.AccountUser)
	r.Kernel = b.Of(vtime.AccountKernel)
	r.Events = b.Of(vtime.AccountEvents)
	busy := r.User + r.Kernel + r.Events
	if r.Total > busy {
		r.Idle = r.Total - busy
	}
	r.TracedSyscalls = w.traced
	return r
}
