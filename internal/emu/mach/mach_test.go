package mach

import (
	"errors"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/kernel"
	"spin/internal/sched"
	"spin/internal/trap"
	"spin/internal/vm"
)

func boot(t *testing.T) (*kernel.Machine, *Emulator) {
	t.Helper()
	m, err := kernel.Boot(kernel.Config{Metered: true})
	if err != nil {
		t.Fatal(err)
	}
	e := &Emulator{}
	if _, err := m.LoadExtension(Image(e)); err != nil {
		t.Fatal(err)
	}
	return m, e
}

func idleStrand(m *kernel.Machine) *sched.Strand {
	return m.Sched.Spawn("task", 1, func(*sched.Strand) sched.Status { return sched.Done })
}

func TestMachTaskGuardFiltersNonMachStrands(t *testing.T) {
	m, e := boot(t)
	outsider := idleStrand(m)
	ms := &trap.SavedState{V0: Uint64(TrapTaskSelf)}
	// No handler fires for a non-Mach strand: the trap is unhandled.
	err := m.Trap.RaiseSyscall(outsider, ms)
	if !errors.Is(err, dispatch.ErrNoHandler) {
		t.Fatalf("err = %v", err)
	}
	if e.Syscalls != 0 || ms.Handled {
		t.Fatal("emulator ran for a non-Mach strand")
	}
}

func TestTaskSelfAndThreadSelf(t *testing.T) {
	m, e := boot(t)
	st := idleStrand(m)
	task := e.MakeTask(st, m.VM.NewSpace())

	ms := &trap.SavedState{V0: Uint64(TrapTaskSelf)}
	if err := m.Trap.RaiseSyscall(st, ms); err != nil {
		t.Fatal(err)
	}
	if ms.Errno != KernSuccess || ms.Result != task.Space.ID() {
		t.Fatalf("task_self = %d errno=%d", ms.Result, ms.Errno)
	}

	ms = &trap.SavedState{V0: Uint64(TrapThreadSelf)}
	_ = m.Trap.RaiseSyscall(st, ms)
	if ms.Result != st.ID() {
		t.Fatalf("thread_self = %d", ms.Result)
	}
	if e.Syscalls != 2 {
		t.Fatalf("syscalls = %d", e.Syscalls)
	}
}

func TestVMAllocateMapsPages(t *testing.T) {
	m, e := boot(t)
	st := idleStrand(m)
	task := e.MakeTask(st, m.VM.NewSpace())

	ms := &trap.SavedState{V0: Uint64(TrapVMAllocate)}
	ms.A[0] = 3 * vm.PageSize
	if err := m.Trap.RaiseSyscall(st, ms); err != nil {
		t.Fatal(err)
	}
	if ms.Errno != KernSuccess {
		t.Fatalf("errno = %d", ms.Errno)
	}
	base := ms.Result
	for p := uint64(0); p < 3; p++ {
		if !task.Space.Mapped(base + p*vm.PageSize) {
			t.Fatalf("page %d not mapped", p)
		}
	}
	if task.Space.Faults != 3 {
		t.Fatalf("faults = %d", task.Space.Faults)
	}
	// A second allocation lands in a disjoint region.
	ms2 := &trap.SavedState{V0: Uint64(TrapVMAllocate)}
	ms2.A[0] = vm.PageSize
	_ = m.Trap.RaiseSyscall(st, ms2)
	if ms2.Result < base+3*vm.PageSize {
		t.Fatalf("regions overlap: %#x vs %#x", ms2.Result, base)
	}
}

func TestVMAllocateZeroSize(t *testing.T) {
	m, e := boot(t)
	st := idleStrand(m)
	e.MakeTask(st, m.VM.NewSpace())
	ms := &trap.SavedState{V0: Uint64(TrapVMAllocate)}
	_ = m.Trap.RaiseSyscall(st, ms)
	if ms.Errno != KernInvalidArg {
		t.Fatalf("errno = %d", ms.Errno)
	}
}

func TestVMDeallocate(t *testing.T) {
	m, e := boot(t)
	st := idleStrand(m)
	task := e.MakeTask(st, m.VM.NewSpace())
	ms := &trap.SavedState{V0: Uint64(TrapVMAllocate)}
	ms.A[0] = 2 * vm.PageSize
	_ = m.Trap.RaiseSyscall(st, ms)
	base := ms.Result

	ms2 := &trap.SavedState{V0: Uint64(TrapVMDeallocate)}
	ms2.A[0], ms2.A[1] = base, 2*vm.PageSize
	_ = m.Trap.RaiseSyscall(st, ms2)
	if ms2.Errno != KernSuccess {
		t.Fatalf("errno = %d", ms2.Errno)
	}
	if task.Space.Mapped(base) || task.Space.Mapped(base+vm.PageSize) {
		t.Fatal("pages still mapped after vm_deallocate")
	}
	// Zero-size deallocate is invalid.
	ms3 := &trap.SavedState{V0: Uint64(TrapVMDeallocate)}
	_ = m.Trap.RaiseSyscall(st, ms3)
	if ms3.Errno != KernInvalidArg {
		t.Fatalf("errno = %d", ms3.Errno)
	}
}

func TestUnknownMachTrap(t *testing.T) {
	m, e := boot(t)
	st := idleStrand(m)
	e.MakeTask(st, m.VM.NewSpace())
	ms := &trap.SavedState{V0: Uint64(-999)}
	if err := m.Trap.RaiseSyscall(st, ms); err != nil {
		t.Fatal(err)
	}
	if ms.Errno != KernInvalidArg || !ms.Handled {
		t.Fatalf("errno = %d handled=%v", ms.Errno, ms.Handled)
	}
	if e.String() == "" {
		t.Fatal("empty String")
	}
}

func TestTaskOf(t *testing.T) {
	m, e := boot(t)
	st := idleStrand(m)
	if _, ok := taskOf(st); ok {
		t.Fatal("phantom task")
	}
	task := e.MakeTask(st, m.VM.NewSpace())
	got, ok := taskOf(st)
	if !ok || got != task {
		t.Fatal("TaskOf broken")
	}
}
