// Package osf is the Digital UNIX (OSF/1) emulator extension — the second
// of the paper's two operating system emulators and the one that supports
// the X11 document-preview workload of §3.2. It installs a guarded handler
// on MachineTrap.Syscall, implements a UNIX-ish system call interface over
// the netstack and fs substrates, and defines the OsfNet port-management
// events and the Events.EventNotify event that Table 3 reports:
//
//	OsfNet.AddTcpPortHandler  - raised when an application acquires a
//	                            TCP port (e.g. the X server listening)
//	OsfNet.DelTcpPortHandler  - raised when the port is released
//	Events.EventNotify        - raised by the emulator's implementation
//	                            of the UNIX select system call
package osf

import (
	"fmt"

	"spin/internal/dispatch"
	"spin/internal/fs"
	"spin/internal/linker"
	"spin/internal/netstack"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/trap"
	"spin/internal/vm"
)

// Module is the OSF emulator's module descriptor.
var Module = rtti.NewModule("OsfEmulator", "OsfNet", "Events")

// OSF/1 system call numbers (the subset the workload exercises).
const (
	SysRead     = 3
	SysWrite    = 4
	SysOpen     = 45
	SysClose    = 6
	SysSelect   = 93
	SysSocket   = 97
	SysConnect  = 98
	SysAccept   = 99
	SysBind     = 104
	SysListen   = 106
	SysRecvFrom = 125
	SysSendTo   = 133
	SysGetPID   = 20
)

// Errno values.
const (
	ESUCCESS    = 0
	EBADF       = 9
	EINVAL      = 22
	EWOULDBLOCK = 35
	ENOSYS      = 78
)

// Socket types for SysSocket.
const (
	SockStream = 1 // TCP
	SockDgram  = 2 // UDP
)

const taskKey = "osf.task"
const extraKey = "osf.extra"

// Extra is the side-channel carrying non-word system call arguments — the
// emulator's stand-in for copying buffers in and out of user memory.
type Extra struct {
	Str  string
	Buf  []byte
	Out  []byte
	Addr string
	Pkt  *netstack.Packet
}

type fdKind int

const (
	fdFile fdKind = iota
	fdUDP
	fdTCPConn
	fdTCPListener
)

type fdEntry struct {
	kind fdKind
	file uint64 // fs descriptor
	udp  *netstack.UDPSocket
	conn *netstack.TCPConn
	lst  *netstack.TCPListener
	port uint16
}

// Task is the per-strand OSF task state: an address space and a
// descriptor table.
type Task struct {
	Space  *vm.AddressSpace
	fds    map[uint64]*fdEntry
	nextFD uint64
}

// taskOf returns a strand's OSF task, if any.
func taskOf(st *sched.Strand) (*Task, bool) {
	t, ok := st.Locals[taskKey].(*Task)
	return t, ok
}

// Emulator is the loaded extension instance.
type Emulator struct {
	trap  *trap.Trap
	stack *netstack.Stack
	fs    *fs.FS

	// AddTcpPortHandler, DelTcpPortHandler and EventNotify are the
	// emulator's exported events (Table 3 rows).
	AddTcpPortHandler *dispatch.Event
	DelTcpPortHandler *dispatch.Event
	EventNotify       *dispatch.Event

	// Syscalls counts system calls handled; TcpWatched counts packets
	// seen by the emulator's per-port TCP watcher.
	Syscalls   int64
	TcpWatched int64
	// ports tracks TCP ports the emulator's applications hold.
	ports map[uint16]bool
}

// New builds the emulator over its substrates. Call Image and load the
// result to wire it in.
func New(tr *trap.Trap, stack *netstack.Stack, filesys *fs.FS) *Emulator {
	return &Emulator{trap: tr, stack: stack, fs: filesys, ports: make(map[uint16]bool)}
}

// Attach registers a strand as an OSF task over the given address space.
func (e *Emulator) Attach(st *sched.Strand, space *vm.AddressSpace) *Task {
	t := &Task{Space: space, fds: make(map[uint64]*fdEntry), nextFD: 3}
	st.Locals[taskKey] = t
	return t
}

// Image builds the extension's linker image: it imports MachineTrap and
// Core, defines the OsfNet and Events events, installs the guarded syscall
// handler, and installs the per-port TCP watcher next to the TCP module's
// intrinsic demultiplexer.
func (e *Emulator) Image() *linker.Image {
	return &linker.Image{
		Name:    "osf-emulator",
		Module:  Module,
		Imports: []string{"MachineTrap", "Core"},
		Init: func(ctx *linker.Context) error {
			dSym, err := ctx.Interface("Core").Lookup("Dispatcher")
			if err != nil {
				return err
			}
			d := dSym.(*dispatch.Dispatcher)

			portSig := rtti.Sig(nil, rtti.Word)
			mk := func(name string) (*dispatch.Event, error) {
				return d.DefineEvent(name, portSig, dispatch.WithIntrinsic(dispatch.Handler{
					Proc: &rtti.Proc{Name: name, Module: Module, Sig: portSig},
					Fn:   func(any, []any) any { return nil },
				}))
			}
			if e.AddTcpPortHandler, err = mk("OsfNet.AddTcpPortHandler"); err != nil {
				return err
			}
			if e.DelTcpPortHandler, err = mk("OsfNet.DelTcpPortHandler"); err != nil {
				return err
			}
			notifySig := rtti.Sig(nil, rtti.Word)
			e.EventNotify, err = d.DefineEvent("Events.EventNotify", notifySig,
				dispatch.WithIntrinsic(dispatch.Handler{
					Proc: &rtti.Proc{Name: "Events.EventNotify", Module: Module, Sig: notifySig},
					Fn:   func(any, []any) any { return nil },
				}))
			if err != nil {
				return err
			}

			// The syscall handler, guarded on task membership just as
			// the Mach emulator's is (Figure 2).
			sysSym, err := ctx.Interface("MachineTrap").Lookup("Syscall")
			if err != nil {
				return err
			}
			_, err = sysSym.(*dispatch.Event).Install(dispatch.Handler{
				Proc: &rtti.Proc{Name: "OsfEmulator.Syscall", Module: Module, Sig: trap.SyscallSig},
				Fn:   e.syscall,
			}, dispatch.WithGuard(dispatch.Guard{
				Proc: &rtti.Proc{Name: "OsfEmulator.SyscallGuard", Module: Module,
					Functional: true,
					Sig:        rtti.Sig(rtti.Bool, sched.StrandType, trap.SavedStateType)},
				Fn: func(clo any, args []any) bool {
					_, ok := taskOf(args[0].(*sched.Strand))
					return ok
				},
			}))
			if err != nil {
				return err
			}

			// The per-port TCP watcher: a handler beside the TCP
			// intrinsic, guarded on the emulator's port set (this is
			// Table 3's second Tcp.PacketArrived handler).
			if e.stack != nil {
				_, err = e.stack.TCPArrived.Install(dispatch.Handler{
					Proc: &rtti.Proc{Name: "OsfNet.TcpWatch", Module: Module,
						Sig: rtti.Sig(nil, rtti.Word, netstack.PacketType)},
					Fn: func(clo any, args []any) any {
						e.TcpWatched++
						return nil
					},
				}, dispatch.WithGuard(e.stack.HeaderGuard("OsfNet.PortOwned",
					func(word uint64, pkt *netstack.Packet) bool {
						return e.ports[uint16(word)]
					})))
				if err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// Sys performs one emulated system call from the given strand: the saved
// state is assembled, the trap is raised, and the result registers are
// returned. This is the workload's "libc".
func (e *Emulator) Sys(st *sched.Strand, num uint64, extra *Extra, args ...uint64) (uint64, uint64) {
	// Errno defaults to ENOSYS: if no emulator claims the call (the
	// strand is not an attached task), the caller must not read success.
	ms := &trap.SavedState{V0: num, Errno: ENOSYS}
	copy(ms.A[:], args)
	if extra != nil {
		st.Locals[extraKey] = extra
	}
	if err := e.trap.RaiseSyscall(st, ms); err != nil {
		return 0, ENOSYS
	}
	delete(st.Locals, extraKey)
	return ms.Result, ms.Errno
}

// syscall is the emulator's MachineTrap.Syscall handler.
func (e *Emulator) syscall(clo any, args []any) any {
	st := args[0].(*sched.Strand)
	ms := args[1].(*trap.SavedState)
	task, ok := taskOf(st)
	if !ok {
		return nil
	}
	e.Syscalls++
	ms.Handled = true
	ms.Errno = ESUCCESS
	extra, _ := st.Locals[extraKey].(*Extra)
	switch ms.V0 {
	case SysGetPID:
		ms.Result, ms.Errno = st.ID(), ESUCCESS
	case SysOpen:
		e.sysOpen(task, ms, extra)
	case SysClose:
		e.sysClose(task, ms)
	case SysRead:
		e.sysRead(task, ms, extra)
	case SysWrite:
		e.sysWrite(task, ms, extra)
	case SysSocket:
		e.sysSocket(task, ms)
	case SysBind:
		e.sysBind(task, ms)
	case SysListen:
		e.sysListen(task, ms)
	case SysAccept:
		e.sysAccept(task, ms)
	case SysConnect:
		e.sysConnect(task, ms, extra)
	case SysRecvFrom:
		e.sysRecvFrom(task, ms, extra)
	case SysSendTo:
		e.sysSendTo(task, ms, extra)
	case SysSelect:
		e.sysSelect(st, task, ms)
	default:
		ms.Errno = ENOSYS
	}
	return nil
}

func (t *Task) alloc(entry *fdEntry) uint64 {
	fd := t.nextFD
	t.nextFD++
	t.fds[fd] = entry
	return fd
}

func (e *Emulator) sysOpen(task *Task, ms *trap.SavedState, extra *Extra) {
	if e.fs == nil || extra == nil {
		ms.Errno = EINVAL
		return
	}
	ffd, err := e.fs.Open(extra.Str)
	if err != nil {
		ms.Errno = EINVAL
		return
	}
	ms.Result, ms.Errno = task.alloc(&fdEntry{kind: fdFile, file: ffd}), ESUCCESS
}

func (e *Emulator) sysClose(task *Task, ms *trap.SavedState) {
	fd := ms.A[0]
	ent, ok := task.fds[fd]
	if !ok {
		ms.Errno = EBADF
		return
	}
	switch ent.kind {
	case fdFile:
		_ = e.fs.Close(ent.file)
	case fdUDP:
		_ = ent.udp.Close()
	case fdTCPConn:
		_ = ent.conn.Close()
	case fdTCPListener:
		ent.lst.Close()
		delete(e.ports, ent.port)
		_, _ = e.DelTcpPortHandler.Raise(uint64(ent.port))
	}
	delete(task.fds, fd)
	ms.Errno = ESUCCESS
}

func (e *Emulator) sysRead(task *Task, ms *trap.SavedState, extra *Extra) {
	ent, ok := task.fds[ms.A[0]]
	if !ok {
		ms.Errno = EBADF
		return
	}
	n := int(ms.A[1])
	switch ent.kind {
	case fdFile:
		data, err := e.fs.Read(ent.file, n)
		if err != nil {
			ms.Errno = EINVAL
			return
		}
		if extra != nil {
			extra.Out = data
		}
		ms.Result, ms.Errno = uint64(len(data)), ESUCCESS
	case fdTCPConn:
		data, ok := ent.conn.Recv()
		if !ok {
			if ent.conn.EOF() {
				ms.Result, ms.Errno = 0, ESUCCESS
				return
			}
			ms.Errno = EWOULDBLOCK
			return
		}
		if extra != nil {
			extra.Out = data
		}
		ms.Result, ms.Errno = uint64(len(data)), ESUCCESS
	default:
		ms.Errno = EINVAL
	}
}

func (e *Emulator) sysWrite(task *Task, ms *trap.SavedState, extra *Extra) {
	ent, ok := task.fds[ms.A[0]]
	if !ok {
		ms.Errno = EBADF
		return
	}
	if extra == nil {
		ms.Errno = EINVAL
		return
	}
	switch ent.kind {
	case fdFile:
		if err := e.fs.Write(ent.file, extra.Buf); err != nil {
			ms.Errno = EINVAL
			return
		}
	case fdTCPConn:
		if err := ent.conn.Send(extra.Buf); err != nil {
			ms.Errno = EINVAL
			return
		}
	default:
		ms.Errno = EINVAL
		return
	}
	ms.Result, ms.Errno = uint64(len(extra.Buf)), ESUCCESS
}

func (e *Emulator) sysSocket(task *Task, ms *trap.SavedState) {
	switch ms.A[0] {
	case SockStream:
		ms.Result, ms.Errno = task.alloc(&fdEntry{kind: fdTCPConn}), ESUCCESS
	case SockDgram:
		ms.Result, ms.Errno = task.alloc(&fdEntry{kind: fdUDP}), ESUCCESS
	default:
		ms.Errno = EINVAL
	}
}

func (e *Emulator) sysBind(task *Task, ms *trap.SavedState) {
	ent, ok := task.fds[ms.A[0]]
	if !ok {
		ms.Errno = EBADF
		return
	}
	port := uint16(ms.A[1])
	switch ent.kind {
	case fdUDP:
		sock, err := e.stack.BindUDP(port)
		if err != nil {
			ms.Errno = EINVAL
			return
		}
		ent.udp = sock
	case fdTCPConn:
		ent.port = port // bound, listen() activates it
	default:
		ms.Errno = EINVAL
		return
	}
	ms.Errno = ESUCCESS
}

func (e *Emulator) sysListen(task *Task, ms *trap.SavedState) {
	ent, ok := task.fds[ms.A[0]]
	if !ok || ent.kind != fdTCPConn || ent.port == 0 {
		ms.Errno = EBADF
		return
	}
	lst, err := e.stack.ListenTCP(ent.port)
	if err != nil {
		ms.Errno = EINVAL
		return
	}
	ent.kind = fdTCPListener
	ent.lst = lst
	e.ports[ent.port] = true
	_, _ = e.AddTcpPortHandler.Raise(uint64(ent.port))
	ms.Errno = ESUCCESS
}

func (e *Emulator) sysAccept(task *Task, ms *trap.SavedState) {
	ent, ok := task.fds[ms.A[0]]
	if !ok || ent.kind != fdTCPListener {
		ms.Errno = EBADF
		return
	}
	conn, ready := ent.lst.Accept()
	if !ready {
		ms.Errno = EWOULDBLOCK
		return
	}
	ms.Result = task.alloc(&fdEntry{kind: fdTCPConn, conn: conn, port: conn.LocalPort()})
	ms.Errno = ESUCCESS
}

func (e *Emulator) sysConnect(task *Task, ms *trap.SavedState, extra *Extra) {
	ent, ok := task.fds[ms.A[0]]
	if !ok || ent.kind != fdTCPConn || extra == nil {
		ms.Errno = EBADF
		return
	}
	conn, err := e.stack.DialTCP(extra.Addr, uint16(ms.A[1]))
	if err != nil {
		ms.Errno = EINVAL
		return
	}
	ent.conn = conn
	ms.Errno = ESUCCESS
}

func (e *Emulator) sysRecvFrom(task *Task, ms *trap.SavedState, extra *Extra) {
	ent, ok := task.fds[ms.A[0]]
	if !ok || ent.kind != fdUDP || ent.udp == nil {
		ms.Errno = EBADF
		return
	}
	pkt, ready := ent.udp.Recv()
	if !ready {
		ms.Errno = EWOULDBLOCK
		return
	}
	if extra != nil {
		extra.Out = pkt.Payload
		extra.Pkt = pkt
	}
	ms.Result, ms.Errno = uint64(len(pkt.Payload)), ESUCCESS
}

func (e *Emulator) sysSendTo(task *Task, ms *trap.SavedState, extra *Extra) {
	ent, ok := task.fds[ms.A[0]]
	if !ok || ent.kind != fdUDP || ent.udp == nil || extra == nil {
		ms.Errno = EBADF
		return
	}
	if err := ent.udp.Send(extra.Addr, uint16(ms.A[1]), extra.Buf); err != nil {
		ms.Errno = EINVAL
		return
	}
	ms.Result, ms.Errno = uint64(len(extra.Buf)), ESUCCESS
}

// sysSelect implements the UNIX select call: it raises Events.EventNotify
// (Table 3: "Event.EventNotify is raised by our implementation of the Unix
// select system call") and reports a readiness bitmask over the descriptor
// numbers passed in A[0..2] (0 terminates the list).
func (e *Emulator) sysSelect(st *sched.Strand, task *Task, ms *trap.SavedState) {
	_, _ = e.EventNotify.Raise(st.ID())
	var mask uint64
	for i, fd := range ms.A[:3] {
		if fd == 0 {
			break
		}
		if e.readable(task, fd) {
			mask |= 1 << uint(i)
		}
	}
	ms.Result, ms.Errno = mask, ESUCCESS
}

func (e *Emulator) readable(task *Task, fd uint64) bool {
	ent, ok := task.fds[fd]
	if !ok {
		return false
	}
	switch ent.kind {
	case fdUDP:
		return ent.udp != nil && ent.udp.Pending() > 0
	case fdTCPConn:
		return ent.conn != nil && ent.conn.Readable()
	case fdTCPListener:
		return ent.lst.Ready()
	}
	return false
}

// AwaitReadable registers st for wakeup when the descriptor becomes
// readable; the strand returns sched.Block after calling it.
func (e *Emulator) AwaitReadable(st *sched.Strand, fd uint64) error {
	task, ok := taskOf(st)
	if !ok {
		return fmt.Errorf("osf: strand %d is not an OSF task", st.ID())
	}
	ent, ok := task.fds[fd]
	if !ok {
		return fmt.Errorf("osf: bad fd %d", fd)
	}
	switch ent.kind {
	case fdUDP:
		ent.udp.AwaitPacket(st)
	case fdTCPConn:
		ent.conn.AwaitData(st)
	case fdTCPListener:
		ent.lst.AwaitConn(st)
	default:
		return fmt.Errorf("osf: fd %d not waitable", fd)
	}
	return nil
}

// ConnOf exposes the TCP connection behind a descriptor (for workload
// bookkeeping).
func (e *Emulator) ConnOf(st *sched.Strand, fd uint64) (*netstack.TCPConn, bool) {
	task, ok := taskOf(st)
	if !ok {
		return nil, false
	}
	ent, ok := task.fds[fd]
	if !ok || ent.kind != fdTCPConn {
		return nil, false
	}
	return ent.conn, ent.conn != nil
}
