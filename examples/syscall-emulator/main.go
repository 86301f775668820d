// Syscall emulator: reproduces the paper's running example end to end —
// Figure 2 (the Mach emulator's guarded handler on MachineTrap.Syscall)
// and Figure 3 (the MachineTrap module asserting authority over the event
// and imposing per-address-space guards on every installation).
//
//	go run ./examples/syscall-emulator
package main

import (
	"errors"
	"fmt"
	"log"

	"spin"
	"spin/internal/dispatch"
	"spin/internal/emu/mach"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/trap"
	"spin/internal/vm"
)

func main() {
	// Trace every raise; a per-raise excerpt prints at the end
	// (`spin trace` replays this scenario with full export options).
	tracer := spin.NewTracer(spin.TraceConfig{Capacity: 4096})
	m, err := spin.Boot(spin.MachineConfig{Name: "demo", Metered: true, Trace: tracer})
	if err != nil {
		log.Fatal(err)
	}

	// Figure 3: MachineTrap, as the authority over its Syscall event,
	// installs an authorizer. On every handler installation it imposes
	// a guard confining the handler to system calls from the address
	// space current at installation time.
	installingSpace := new(uint64)
	err = m.Trap.InstallAuthorizer(func(req *dispatch.AuthRequest) bool {
		if req.Op != dispatch.OpInstall {
			return true
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
		err := req.ImposeGuard(dispatch.Guard{
			Proc:    gproc,
			Closure: valid,
			Fn: func(validSpace any, args []any) bool {
				// RETURN Space(strand) = validSpace
				return args[0].(*sched.Strand).Space() == validSpace.(uint64)
			},
		})
		if err != nil {
			fmt.Println("authorizer: impose failed:", err)
			return false
		}
		fmt.Printf("authorizer: allowed %s, imposed guard for space %d\n",
			req.Binding.HandlerName(), valid)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two address spaces, each with its own Mach emulator instance
	// (Figure 2's module), loaded through the dynamic linker.
	spaceA, spaceB := m.VM.NewSpace(), m.VM.NewSpace()

	emuA := &mach.Emulator{}
	*installingSpace = spaceA.ID()
	if _, err := m.LoadExtension(imageNamed(emuA, "mach-for-A")); err != nil {
		log.Fatal(err)
	}
	emuB := &mach.Emulator{}
	*installingSpace = spaceB.ID()
	if _, err := m.LoadExtension(imageNamed(emuB, "mach-for-B")); err != nil {
		log.Fatal(err)
	}

	// Two strands, one per space, both registered as Mach tasks.
	strandA := m.Sched.Spawn("task-A", spaceA.ID(), func(*sched.Strand) sched.Status { return sched.Done })
	strandB := m.Sched.Spawn("task-B", spaceB.ID(), func(*sched.Strand) sched.Status { return sched.Done })
	emuA.MakeTask(strandA, spaceA)
	emuB.MakeTask(strandB, spaceB)

	// vm_allocate from each task: the imposed guards ensure each
	// emulator instance only sees its own space's system calls.
	fmt.Println("\n-- task A: vm_allocate(3 pages) --")
	ms := &trap.SavedState{V0: mach.Uint64(mach.TrapVMAllocate)}
	ms.A[0] = 3 * vm.PageSize
	if err := m.Trap.RaiseSyscall(strandA, ms); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allocated at %#x (errno %d); A handled=%d, B handled=%d\n",
		ms.Result, ms.Errno, emuA.Syscalls, emuB.Syscalls)

	fmt.Println("\n-- task B: task_self() --")
	ms = &trap.SavedState{V0: mach.Uint64(mach.TrapTaskSelf)}
	if err := m.Trap.RaiseSyscall(strandB, ms); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task_self = %d; A handled=%d, B handled=%d\n",
		ms.Result, emuA.Syscalls, emuB.Syscalls)

	// A strand outside any Mach task: no handler fires — the unhandled
	// trap surfaces as the paper's runtime exception at the raise point.
	fmt.Println("\n-- stranger: unhandled trap --")
	stranger := m.Sched.Spawn("stranger", 99, func(*sched.Strand) sched.Status { return sched.Done })
	err = m.Trap.RaiseSyscall(stranger, &trap.SavedState{V0: 1})
	fmt.Println("raise error:", err, "| is ErrNoHandler:", errors.Is(err, spin.ErrNoHandler))

	fmt.Printf("\nSyscall event stats: %+v\n", m.Trap.Syscall.Stats())

	// The first traced MachineTrap.Syscall raise, span by span: the
	// imposed guards evaluating (pass for A's emulator, fail for B's)
	// before the confined handler fires.
	spans := tracer.Snapshot()
	var first uint64
	for _, sp := range spans {
		if sp.Event == "MachineTrap.Syscall" && sp.Raise != 0 {
			first = sp.Raise
			break
		}
	}
	fmt.Println("\n-- trace of the first Syscall raise --")
	for _, sp := range spans {
		if sp.Raise == first {
			pass := ""
			if sp.Kind.String() == "guard" {
				pass = "[fail]"
				if sp.Pass {
					pass = "[pass]"
				}
			}
			fmt.Printf("%-12v %-28s %-6s cost=%v\n", sp.Kind, sp.Name, pass, sp.Cost)
		}
	}
}

// imageNamed wraps mach.Image with a unique domain name so two instances
// can coexist.
func imageNamed(e *mach.Emulator, name string) *spin.ExtensionImage {
	img := mach.Image(e)
	img.Name = name
	return img
}
