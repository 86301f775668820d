package main

import (
	"fmt"
	"io"
	"os"

	"spin"
	"spin/internal/dispatch"
	"spin/internal/emu/mach"
	"spin/internal/kernel"
	"spin/internal/rtti"
	"spin/internal/scenario"
	"spin/internal/sched"
	"spin/internal/trace"
	"spin/internal/trap"
	"spin/internal/vm"
)

// traceCmd replays the repository's example scenarios with dispatch
// tracing enabled and emits the recorded raise spans, either as Chrome
// trace_event JSON (loadable in chrome://tracing or ui.perfetto.dev) or as
// human-readable text:
//
//	spin trace -scenario webserver                 text trace of the web server replay
//	spin trace -scenario webserver -format chrome  Chrome trace_event JSON on stdout
//	spin trace -scenario syscall -sample 1         every raise of the Mach emulator replay
//	spin trace -scenario webserver -o trace.json -format chrome
//
// Tracing is compiled into each event's dispatch plan (see internal/trace),
// so the replayed scenario exercises exactly the traced-plan code paths a
// production dispatcher would run with tracing on.
func traceCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("trace", stderr)
	which := fs.String("scenario", "webserver", "scenario to replay: webserver, syscall")
	format := fs.String("format", "text", "output format: text, chrome")
	sample := fs.Int("sample", 1, "record 1-in-N raises (1 = every raise)")
	capacity := fs.Int("capacity", 16384, "span ring capacity")
	out := fs.String("o", "", "write the trace to this file instead of stdout")
	if err := parse(fs, args); err != nil {
		return err
	}

	tracer := trace.New(trace.Config{Capacity: *capacity, Sample: *sample})
	var err error
	switch *which {
	case "webserver":
		err = replayWebserver(tracer)
	case "syscall":
		err = replaySyscall(tracer)
	default:
		err = fmt.Errorf("unknown scenario %q (want webserver or syscall)", *which)
	}
	if err != nil {
		return err
	}

	export := tracer.ExportText
	switch *format {
	case "chrome":
		export = tracer.ExportChrome
	case "text":
	default:
		return fmt.Errorf("unknown format %q (want text or chrome)", *format)
	}
	if *out == "" {
		return export(stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close() // the export error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "spin trace: %d spans recorded (%d dropped), wrote %s\n",
		len(tracer.Snapshot()), tracer.Dropped(), *out)
	return nil
}

// replayWebserver reruns the examples/webserver scenario — a SPIN machine
// serving pages over simulated TCP with three composed extensions (a
// legacy-URL filter, a guarded /stats route, an access logger, and a
// result handler arbitrating their responses) — with machine-wide tracing,
// so a traced Httpd.Request raise shows filter -> guard -> handler ->
// merge spans.
func replayWebserver(tracer *trace.Tracer) error {
	w, err := scenario.NewWebserver(kernel.Config{Name: "spin", Metered: true, Trace: tracer})
	if err != nil {
		return err
	}
	if err := w.InstallRoutes(); err != nil {
		return err
	}
	if err := w.InstallLogger(); err != nil {
		return err
	}
	_, err = w.Browse([]string{"/", "/PAPERS/EVENTS.PS", "/stats", "/missing"})
	return err
}

// replaySyscall reruns the examples/syscall-emulator scenario — two Mach
// emulator instances confined to their address spaces by imposed guards —
// with machine-wide tracing, plus one denied installation so the trace
// carries a control-plane rejection span.
func replaySyscall(tracer *trace.Tracer) error {
	m, err := spin.Boot(spin.MachineConfig{Name: "demo", Metered: true, Trace: tracer})
	if err != nil {
		return err
	}

	installingSpace := new(uint64)
	err = m.Trap.InstallAuthorizer(func(req *dispatch.AuthRequest) bool {
		if req.Op != dispatch.OpInstall {
			return true
		}
		if req.Binding.Installer() != nil && req.Binding.Installer().Name() == "Rogue" {
			return false
		}
		valid := *installingSpace
		gproc := &rtti.Proc{
			Name: "MachineTrap.ImposedSyscallGuard", Module: trap.Module,
			Functional: true,
			Sig: rtti.Signature{
				Args:   []rtti.Type{rtti.RefAny, sched.StrandType, trap.SavedStateType},
				Result: rtti.Bool,
			},
		}
		return req.ImposeGuard(dispatch.Guard{
			Proc:    gproc,
			Closure: valid,
			Fn: func(validSpace any, args []any) bool {
				return args[0].(*sched.Strand).Space() == validSpace.(uint64)
			},
		}) == nil
	})
	if err != nil {
		return err
	}

	spaceA, spaceB := m.VM.NewSpace(), m.VM.NewSpace()
	emuA := &mach.Emulator{}
	*installingSpace = spaceA.ID()
	if _, err := m.LoadExtension(imageNamed(emuA, "mach-for-A")); err != nil {
		return err
	}
	emuB := &mach.Emulator{}
	*installingSpace = spaceB.ID()
	if _, err := m.LoadExtension(imageNamed(emuB, "mach-for-B")); err != nil {
		return err
	}

	// A rogue module's denied installation: records a reject span.
	_, _ = m.Trap.Syscall.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Rogue.Spy", Module: rtti.NewModule("Rogue"),
			Sig: m.Trap.Syscall.Signature()},
		Fn: func(clo any, args []any) any { return nil },
	})

	strandA := m.Sched.Spawn("task-A", spaceA.ID(), func(*sched.Strand) sched.Status { return sched.Done })
	strandB := m.Sched.Spawn("task-B", spaceB.ID(), func(*sched.Strand) sched.Status { return sched.Done })
	emuA.MakeTask(strandA, spaceA)
	emuB.MakeTask(strandB, spaceB)

	ms := &trap.SavedState{V0: mach.Uint64(mach.TrapVMAllocate)}
	ms.A[0] = 3 * vm.PageSize
	if err := m.Trap.RaiseSyscall(strandA, ms); err != nil {
		return err
	}
	ms = &trap.SavedState{V0: mach.Uint64(mach.TrapTaskSelf)}
	if err := m.Trap.RaiseSyscall(strandB, ms); err != nil {
		return err
	}
	m.Run(0)
	return nil
}

// imageNamed wraps mach.Image with a unique domain name so two instances
// can coexist.
func imageNamed(e *mach.Emulator, name string) *spin.ExtensionImage {
	img := mach.Image(e)
	img.Name = name
	return img
}
