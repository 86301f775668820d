package kernel

import (
	"errors"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/linker"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/trap"
	"spin/internal/vtime"
)

func TestBootUnmetered(t *testing.T) {
	m, err := Boot(Config{Name: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if m.CPU != nil || m.Sim != nil {
		t.Fatal("unmetered boot attached a meter")
	}
	if m.Dispatcher == nil || m.Sched == nil || m.Trap == nil || m.VM == nil {
		t.Fatal("substrate missing")
	}
	if m.Elapsed() != 0 {
		t.Fatal("unmetered machine has uptime")
	}
	// The core events exist.
	for _, name := range []string{"MachineTrap.Syscall", "Strand.Run", "VM.PageFault", "VM.PageInRequest"} {
		if _, ok := m.Dispatcher.Lookup(name); !ok {
			t.Errorf("event %s not defined at boot", name)
		}
	}
}

func TestBootMetered(t *testing.T) {
	m, err := Boot(Config{Name: "sim", Metered: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.CPU == nil || m.Sim == nil || m.Clock == nil {
		t.Fatal("metered boot missing meter")
	}
	// Boot itself costs virtual time (the VM's default/result handler
	// installations regenerate plans); charges accumulate on top.
	before := m.Elapsed()
	m.CPU.Charge(vtime.CallDirect)
	if m.Elapsed()-before != vtime.Micros(0.10) {
		t.Fatalf("charge delta = %v", m.Elapsed()-before)
	}
}

func TestKernelExportsLinkable(t *testing.T) {
	m, err := Boot(Config{Metered: true})
	if err != nil {
		t.Fatal(err)
	}
	dom, err := m.Nexus.Domain("kernel")
	if err != nil {
		t.Fatal(err)
	}
	exports := dom.Exports()
	want := map[string]bool{"Core": true, "MachineTrap": true, "Strand": true, "VM": true}
	for _, e := range exports {
		delete(want, e)
	}
	if len(want) != 0 {
		t.Fatalf("missing exports: %v (got %v)", want, exports)
	}
}

// TestExtensionLifecycle loads an extension through the two-phase protocol:
// link against MachineTrap, install a syscall handler in the initializer,
// then observe a syscall dispatched to it.
func TestExtensionLifecycle(t *testing.T) {
	m, err := Boot(Config{Metered: true})
	if err != nil {
		t.Fatal(err)
	}
	emu := rtti.NewModule("MiniEmu")
	calls := 0
	img := &linker.Image{
		Name:    "mini-emu",
		Module:  emu,
		Imports: []string{"MachineTrap"},
		Init: func(ctx *linker.Context) error {
			sym, err := ctx.Interface("MachineTrap").Lookup("Syscall")
			if err != nil {
				return err
			}
			ev := sym.(*dispatch.Event)
			_, err = ev.Install(dispatch.Handler{
				Proc: &rtti.Proc{Name: "MiniEmu.Syscall", Module: emu, Sig: trap.SyscallSig},
				Fn: func(clo any, args []any) any {
					calls++
					args[1].(*trap.SavedState).Handled = true
					return nil
				},
			})
			return err
		},
	}
	if _, err := m.LoadExtension(img); err != nil {
		t.Fatal(err)
	}
	st := m.Sched.Spawn("app", 1, func(*sched.Strand) sched.Status { return sched.Done })
	ms := &trap.SavedState{V0: 1}
	if err := m.Trap.RaiseSyscall(st, ms); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !ms.Handled {
		t.Fatalf("calls=%d handled=%v", calls, ms.Handled)
	}
}

func TestLinkDenialBlocksExtension(t *testing.T) {
	m, err := Boot(Config{})
	if err != nil {
		t.Fatal(err)
	}
	dom, _ := m.Nexus.Domain("kernel")
	evil := rtti.NewModule("Evil")
	if err := dom.SetAuthorizer(func(req *rtti.Module, iface *linker.Interface) bool {
		return req != evil
	}, Module); err != nil {
		t.Fatal(err)
	}
	_, err = m.LoadExtension(&linker.Image{
		Name: "evil", Module: evil, Imports: []string{"MachineTrap"},
	})
	if !errors.Is(err, linker.ErrLinkDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestMachineRunDrainsSimulator(t *testing.T) {
	m, err := Boot(Config{Metered: true})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	m.Sched.Spawn("w", 0, func(st *sched.Strand) sched.Status {
		steps++
		if steps == 3 {
			return sched.Done
		}
		return sched.Yield
	})
	m.Run(0)
	if steps != 3 {
		t.Fatalf("steps = %d", steps)
	}
	if m.Elapsed() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestUnmeteredRunUsesScheduler(t *testing.T) {
	m, err := Boot(Config{})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	m.Sched.Spawn("w", 0, func(st *sched.Strand) sched.Status {
		steps++
		if steps == 2 {
			return sched.Done
		}
		return sched.Yield
	})
	m.Run(0)
	if steps != 2 {
		t.Fatalf("steps = %d", steps)
	}
}

func TestShareWithInheritsClockAndSim(t *testing.T) {
	a, err := Boot(Config{Metered: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Boot(Config{ShareWith: a})
	if err != nil {
		t.Fatal(err)
	}
	if b.Clock != a.Clock || b.Sim != a.Sim {
		t.Fatal("shared machine has its own timeline")
	}
	if b.CPU == a.CPU {
		t.Fatal("shared machine must keep its own meter")
	}
	b.CPU.Charge(vtime.CallDirect)
	if a.Clock.Now() == 0 {
		t.Fatal("charge did not advance the shared clock")
	}
	if a.CPU.Total(vtime.AccountKernel) != 0 {
		t.Fatal("charge leaked into the other machine's meter")
	}
}
