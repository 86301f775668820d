// Package mach is the Mach system-call emulator extension, reproducing the
// paper's Figure 2: a handler installed on MachineTrap.Syscall with a
// guard (IsMachTask) that recognises threads executing as part of Mach
// tasks, dispatching on the saved v0 register to the Mach VM primitives.
//
// It is loaded as a linker image (the two-phase protocol of §2): phase one
// links it against the MachineTrap and VM interfaces; phase two — its
// module body — installs the syscall handler through the dispatcher.
package mach

import (
	"fmt"

	"spin/internal/dispatch"
	"spin/internal/linker"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/trap"
	"spin/internal/vm"
)

// Module is the MachEmulator's module descriptor.
var Module = rtti.NewModule("MachEmulator", "Mach")

// Mach trap numbers arrive in v0 as negative values (Figure 2's
// "CASE ms.v0 OF | -65 => vm_allocate"). The saved register is unsigned;
// the emulator reinterprets it.
const (
	TrapVMAllocate   = -65
	TrapVMDeallocate = -66
	TrapTaskSelf     = -28
	TrapThreadSelf   = -27
)

// Errno values written back into the saved state.
const (
	KernSuccess        = 0
	KernInvalidArg     = 4
	KernInvalidAddress = 1
)

// taskKey marks a strand as belonging to a Mach task in its Locals.
const taskKey = "mach.task"

// Task is the per-strand Mach task state.
type Task struct {
	// Space is the task's address space.
	Space *vm.AddressSpace
	// NextVA is the allocation cursor for vm_allocate.
	NextVA uint64
}

// Emulator is the loaded extension instance.
type Emulator struct {
	vmsvc *vm.VM
	// Binding is the installed syscall handler's binding.
	Binding *dispatch.Binding
	// Syscalls counts Mach system calls handled.
	Syscalls int64
}

// MakeTask registers a strand as a Mach task over the given address space.
func (e *Emulator) MakeTask(st *sched.Strand, space *vm.AddressSpace) *Task {
	t := &Task{Space: space, NextVA: 0x10000000}
	st.Locals[taskKey] = t
	return t
}

// taskOf returns the Mach task a strand belongs to, if any.
func taskOf(st *sched.Strand) (*Task, bool) {
	t, ok := st.Locals[taskKey].(*Task)
	return t, ok
}

// Image builds the extension's linker image. On load it installs the
// Syscall handler with the IsMachTask guard, exactly as Figure 2's module
// initialization block does.
func Image(e *Emulator) *linker.Image {
	return &linker.Image{
		Name:    "mach-emulator",
		Module:  Module,
		Imports: []string{"MachineTrap", "VM"},
		Init: func(ctx *linker.Context) error {
			sysSym, err := ctx.Interface("MachineTrap").Lookup("Syscall")
			if err != nil {
				return err
			}
			vmSym, err := ctx.Interface("VM").Lookup("VM")
			if err != nil {
				return err
			}
			e.vmsvc = vmSym.(*vm.VM)
			ev := sysSym.(*dispatch.Event)

			// (* installation of the syscall handler *)
			// Dispatcher.InstallHandler(MachineTrap.Syscall,
			//                           SyscallGuard, Syscall);
			b, err := ev.Install(dispatch.Handler{
				Proc: &rtti.Proc{Name: "MachEmulator.Syscall", Module: Module, Sig: trap.SyscallSig},
				Fn:   e.syscall,
			}, dispatch.WithGuard(dispatch.Guard{
				Proc: &rtti.Proc{Name: "MachEmulator.SyscallGuard", Module: Module,
					Functional: true,
					Sig:        rtti.Sig(rtti.Bool, sched.StrandType, trap.SavedStateType)},
				Fn: func(clo any, args []any) bool {
					// RETURN IsMachTask(strand)
					_, ok := taskOf(args[0].(*sched.Strand))
					return ok
				},
			}))
			if err != nil {
				return err
			}
			e.Binding = b
			return nil
		},
	}
}

// syscall is the Mach extension's system call routine (Figure 2).
func (e *Emulator) syscall(clo any, args []any) any {
	st := args[0].(*sched.Strand)
	ms := args[1].(*trap.SavedState)
	task, ok := taskOf(st)
	if !ok {
		return nil // guard should have filtered; be defensive
	}
	e.Syscalls++
	ms.Handled = true
	switch int64(ms.V0) {
	case TrapVMAllocate:
		e.vmAllocate(task, ms)
	case TrapVMDeallocate:
		e.vmDeallocate(task, ms)
	case TrapTaskSelf:
		ms.Result = task.Space.ID()
		ms.Errno = KernSuccess
	case TrapThreadSelf:
		ms.Result = st.ID()
		ms.Errno = KernSuccess
	default:
		ms.Errno = KernInvalidArg
	}
	return nil
}

// vmAllocate implements vm_allocate: reserve a region and touch its pages
// in via the VM substrate.
func (e *Emulator) vmAllocate(task *Task, ms *trap.SavedState) {
	size := ms.A[0]
	if size == 0 {
		ms.Errno = KernInvalidArg
		return
	}
	base := task.NextVA
	pages := (size + vm.PageSize - 1) / vm.PageSize
	task.NextVA += pages * vm.PageSize
	for p := uint64(0); p < pages; p++ {
		if err := task.Space.Touch(base + p*vm.PageSize); err != nil {
			ms.Errno = KernInvalidAddress
			return
		}
	}
	ms.Result = base
	ms.Errno = KernSuccess
}

// vmDeallocate implements vm_deallocate.
func (e *Emulator) vmDeallocate(task *Task, ms *trap.SavedState) {
	base, size := ms.A[0], ms.A[1]
	if size == 0 {
		ms.Errno = KernInvalidArg
		return
	}
	for addr := base; addr < base+size; addr += vm.PageSize {
		task.Space.Unmap(addr)
	}
	ms.Errno = KernSuccess
}

// Uint64 reinterprets a Mach trap number for storing into SavedState.V0.
func Uint64(trapNo int64) uint64 { return uint64(trapNo) }

// String describes the emulator state.
func (e *Emulator) String() string {
	return fmt.Sprintf("mach emulator: %d syscalls handled", e.Syscalls)
}
