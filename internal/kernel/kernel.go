// Package kernel assembles the SPIN kernel core for one simulated machine.
//
// The paper's kernel "defines only a few low-level services, such as device
// access, dynamic linking, and events. All other services ... are provided
// as extensions which are dynamically bound into the kernel as needed"
// (§1.1). Boot accordingly wires up exactly the low-level substrates — the
// virtual clock and CPU meter, the event dispatcher, the dynamic linker,
// the trap module, the strand scheduler, and the VM service — and exports
// their interfaces through the linker so extensions can be loaded against
// them with the two-phase link-then-register protocol of §2.
package kernel

import (
	"spin/internal/dispatch"
	"spin/internal/fault"
	"spin/internal/linker"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/trace"
	"spin/internal/trap"
	"spin/internal/vm"
	"spin/internal/vtime"
)

// Module is the kernel core's module descriptor.
var Module = rtti.NewModule("Kernel", "Core", "MachineTrap", "Strand", "VM")

// Config selects how a machine boots.
type Config struct {
	// Name identifies the machine in multi-machine simulations.
	Name string
	// Metered attaches a virtual clock, an Alpha-calibrated CPU meter,
	// and a discrete-event simulator. Unmetered machines run in real
	// time with goroutine-backed asynchrony.
	Metered bool
	// Trace, when non-nil, enables dispatch tracing machine-wide: every
	// event defined on the machine's dispatcher records sampled raises
	// into the tracer's span ring (see internal/trace).
	Trace *trace.Tracer
	// FaultPolicy, when non-nil, enables fault enforcement machine-wide:
	// handler panics and deadline overruns are charged against the
	// policy's budgets and offending bindings are quarantined out of
	// their events' dispatch plans (see internal/fault). Nil leaves the
	// dispatcher in record-only mode.
	FaultPolicy *fault.Policy
	// ShareWith, when non-nil, makes this machine share the given
	// machine's virtual clock and simulator — required for multi-machine
	// experiments (the Table 2 UDP roundtrip runs two machines on one
	// discrete-event timeline). Each machine still gets its own CPU
	// meter. Implies Metered.
	ShareWith *Machine
}

// Machine is one booted kernel instance.
type Machine struct {
	Name string

	Clock      *vtime.Clock
	CPU        *vtime.CPU
	Sim        *vtime.Simulator
	Dispatcher *dispatch.Dispatcher
	Nexus      *linker.Nexus
	Sched      *sched.Scheduler
	Trap       *trap.Trap
	VM         *vm.VM
}

// Boot creates a machine: substrates are constructed bottom-up and the
// kernel domain is registered with the linker, exporting the core
// interfaces extensions link against.
func Boot(cfg Config) (*Machine, error) {
	m := &Machine{Name: cfg.Name}

	var dopts []dispatch.Option
	if cfg.Metered || cfg.ShareWith != nil {
		model := vtime.AlphaModel()
		if cfg.ShareWith != nil {
			m.Clock = cfg.ShareWith.Clock
			m.Sim = cfg.ShareWith.Sim
			m.CPU = vtime.NewCPU(m.Clock, model)
		} else {
			m.Clock = &vtime.Clock{}
			m.CPU = vtime.NewCPU(m.Clock, model)
			m.Sim = vtime.NewSimulator(m.Clock)
			m.Sim.AccountIdleTo(m.CPU)
		}
		dopts = append(dopts, dispatch.WithCPU(m.CPU), dispatch.WithSimulator(m.Sim))
	}
	if cfg.Trace != nil {
		dopts = append(dopts, dispatch.WithTracer(cfg.Trace))
	}
	if cfg.FaultPolicy != nil {
		dopts = append(dopts, dispatch.WithFaultPolicy(*cfg.FaultPolicy))
	}
	m.Dispatcher = dispatch.New(dopts...)
	m.Nexus = linker.NewNexus()

	var err error
	if m.Trap, err = trap.New(m.Dispatcher, m.CPU); err != nil {
		return nil, err
	}
	if m.Sched, err = sched.New(m.Dispatcher, m.CPU, m.Sim); err != nil {
		return nil, err
	}
	if m.VM, err = vm.New(m.Dispatcher, m.CPU); err != nil {
		return nil, err
	}

	// Export the kernel interfaces. Extensions resolve events and
	// services from these, never from package-level state.
	core := linker.NewInterface("Core", Module).
		Define("Dispatcher", m.Dispatcher).
		Define("CPU", m.CPU).
		Define("Machine", m)
	trapIface := linker.NewInterface("MachineTrap", trap.Module).
		Define("Syscall", m.Trap.Syscall).
		Define("Trap", m.Trap)
	strandIface := linker.NewInterface("Strand", sched.Module).
		Define("Run", m.Sched.RunEvent).
		Define("Scheduler", m.Sched)
	vmIface := linker.NewInterface("VM", vm.Module).
		Define("PageFault", m.VM.PageFault).
		Define("PageInRequest", m.VM.PageInRequest).
		Define("VM", m.VM)

	_, err = m.Nexus.Load(&linker.Image{
		Name:    "kernel",
		Module:  Module,
		Exports: []*linker.Interface{core, trapIface, strandIface, vmIface},
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// LoadExtension incorporates an extension image: dynamic linking against
// exported interfaces, then the image initializer's handler registrations.
func (m *Machine) LoadExtension(img *linker.Image) (*linker.Domain, error) {
	return m.Nexus.Load(img)
}

// Run drives the machine's simulator until quiescence (metered machines
// only). The limit bounds runaway simulations; 0 means unbounded.
func (m *Machine) Run(limit int) {
	if m.Sim != nil {
		m.Sim.Run(limit)
	} else {
		m.Sched.RunToCompletion(limit)
	}
}

// Elapsed reports the machine's virtual uptime.
func (m *Machine) Elapsed() vtime.Duration {
	if m.Clock == nil {
		return 0
	}
	return vtime.Duration(m.Clock.Now())
}
