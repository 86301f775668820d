package vtime

// Kind identifies an architectural operation with a calibrated virtual-time
// cost. The constants are derived from the paper's measured tables; each
// derivation is documented next to its value in AlphaModel below.
type Kind int

const (
	// CallDirect is a direct (statically bound) procedure call: the
	// paper's "Modula-3 procedure call" column, i.e. an event dispatched
	// through its intrinsic handler with the dispatcher bypassed.
	CallDirect Kind = iota
	// CallDirectArg is the incremental per-argument cost of a direct call.
	CallDirectArg
	// DispatchEntry is the fixed cost of entering a generated dispatch
	// routine: saving the raise site, loading the current plan, and
	// setting up the argument vector.
	DispatchEntry
	// DispatchEntryArg is the per-argument cost of marshalling raise
	// arguments into the dispatch argument vector.
	DispatchEntryArg
	// InlineEntry is the fixed cost of entering a fully inlined dispatch
	// routine; it replaces DispatchEntry when every guard and handler on
	// the event was inlined by the code generator (the "inline" columns
	// of Table 1).
	InlineEntry
	// GuardIndirect is the cost of evaluating one guard through an
	// indirect procedure call (the "no inline" configuration).
	GuardIndirect
	// HandlerIndirect is the cost of invoking one handler through an
	// indirect procedure call (the "no inline" configuration).
	HandlerIndirect
	// BindingIndirectArg is the incremental per-argument, per-binding cost
	// of passing arguments along an indirect guard+handler pair.
	BindingIndirectArg
	// GuardInline is the cost of evaluating one guard whose body the
	// code generator has inlined into the dispatch routine.
	GuardInline
	// HandlerInline is the cost of running one handler whose body the
	// code generator has inlined into the dispatch routine.
	HandlerInline
	// BindingInlineArg is the per-argument, per-binding cost in the
	// inlined configuration.
	BindingInlineArg
	// ResultMerge is the cost of one result-handler application.
	ResultMerge
	// ArgCopy is the cost of copying one argument word, charged per
	// argument on entry to an inlined dispatch routine and when the
	// dispatcher snapshots arguments ahead of a filter or pure-guard
	// check. Calibrated from the inline 5-argument column of Table 1:
	// (0.42 - 0.184 - 0.046*1)/5 ~= 0.025 with the inline entry at 0.184.
	ArgCopy
	// PlanCompileBase is the fixed cost of regenerating the dispatch
	// code for an event (one handler installation or removal).
	PlanCompileBase
	// PlanCompileBinding is the per-existing-binding cost of plan
	// regeneration; installation of n handlers therefore costs O(n^2)
	// total, matching §3.1 "Installation overhead".
	PlanCompileBinding
	// ThreadSpawnBase is the fixed cost of creating the thread that backs
	// an asynchronous event raise or an asynchronous handler.
	ThreadSpawnBase
	// ThreadSpawnArg is the per-argument cost of copying arguments onto
	// the new thread's stack for an asynchronous invocation.
	ThreadSpawnArg
	// ContextSwitch is the cost of one scheduler context switch
	// (Strand.Run raise plus register save/restore handlers).
	ContextSwitch
	// SyscallTrap is the machine-dependent cost of taking a system call
	// trap and saving thread state, before MachineTrap.Syscall is raised.
	SyscallTrap
	// Interrupt is the cost of fielding a device interrupt (network
	// receive) before the Ether.PacketArrived event is raised.
	Interrupt
	// NetGuardEval is the cost of evaluating one packet-discriminating
	// guard on the network receive path. These guards parse protocol
	// header fields, so they are costlier than the trivial
	// compare-global-to-constant guards of Table 1.
	NetGuardEval
	// ProtoLayer is the per-layer protocol processing cost (checksum,
	// header parse/build) charged by each of ether/ip/udp/tcp.
	ProtoLayer
	// SocketOp is the cost of a socket-layer operation (enqueue to a
	// socket buffer, wakeup of a blocked strand).
	SocketOp
	// PageFaultEntry is the machine cost of taking a translation fault
	// before VM.PageFault is raised.
	PageFaultEntry
	// FSOp is the cost of a basic file-system operation on the in-memory
	// file system, excluding event dispatch.
	FSOp
	numKinds
)

var kindNames = [numKinds]string{
	"CallDirect", "CallDirectArg", "DispatchEntry", "DispatchEntryArg",
	"InlineEntry",
	"GuardIndirect", "HandlerIndirect", "BindingIndirectArg",
	"GuardInline", "HandlerInline", "BindingInlineArg",
	"ResultMerge", "ArgCopy", "PlanCompileBase", "PlanCompileBinding",
	"ThreadSpawnBase", "ThreadSpawnArg", "ContextSwitch", "SyscallTrap",
	"Interrupt", "NetGuardEval", "ProtoLayer", "SocketOp",
	"PageFaultEntry", "FSOp",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "Kind(?)"
}

// Model maps operation kinds to virtual durations. A nil *Model is valid
// and charges nothing, so unmetered configurations pay no overhead.
type Model struct {
	costs [numKinds]Duration
}

// newModel builds a model from an explicit table. Kinds absent from the
// table cost zero.
func newModel(table map[Kind]Duration) *Model {
	m := &Model{}
	for k, d := range table {
		m.costs[k] = d
	}
	return m
}

// Cost returns the cost of one operation of kind k. A nil model reports
// zero for every kind.
func (m *Model) Cost(k Kind) Duration {
	if m == nil {
		return 0
	}
	return m.costs[k]
}

// AlphaModel returns the cost model calibrated to the paper's DEC Alpha
// AXP 3000/400 (133 MHz, 74 SPECint92) measurements. Derivations, with all
// paper numbers in microseconds:
//
//   - Table 1 "Modula-3 procedure call": 0.10 (0 args), 0.13 (1), 0.14 (5).
//     CallDirect = 0.10; the per-argument increment is ~0.01 with the first
//     argument slightly costlier; we use CallDirectArg = 0.01.
//   - Table 1 no-inline, 0 args: 0.37 (1 handler) -> 11.69 (50 handlers).
//     Slope (11.69-0.37)/49 = 0.231 per binding, split evenly into
//     GuardIndirect = 0.115 and HandlerIndirect = 0.116. Intercept
//     0.37 - 0.231 = 0.139, so DispatchEntry = 0.14.
//   - Table 1 no-inline, 5 args: slope (14.45-0.97)/49 = 0.275; the extra
//     0.044 over the 0-arg slope across 5 args gives
//     BindingIndirectArg = 0.009. Intercept 0.97 - 0.275 = 0.695; the
//     0.55 of per-raise argument marshalling over DispatchEntry across 5
//     args gives DispatchEntryArg = 0.11.
//   - Table 1 inline, 0 args: 0.23 -> 2.48. Slope (2.48-0.23)/49 = 0.046,
//     split into GuardInline = 0.023 and HandlerInline = 0.023. Intercept
//     0.23 - 0.046 = 0.184; inlined dispatch still pays DispatchEntry-like
//     setup, and we model the remainder (0.184 - 0.14) as cheaper argument
//     handling: in the inline configuration DispatchEntryArg is not
//     charged; instead BindingInlineArg = 0.012 (from the 5-arg inline
//     slope (5.65-0.42)/49 = 0.107: (0.107-0.046)/5 = 0.012) plus an
//     entry adjustment of 0.009/arg folded into ArgCopy.
//   - §3.1: asynchronous events add 38-90 us; ThreadSpawnBase = 38 and
//     ThreadSpawnArg = 10.4 reproduce the range over 0-5 arguments.
//   - §3.1 Installation overhead: one install is ~150 us and 100 installs
//     on one event take ~30 ms. Sum over n=0..99 of (base + c*n) =
//     100*150 + 4950*c us = 30 ms at c = 3.03; so
//     PlanCompileBase = 150 and PlanCompileBinding = 3.03.
//   - Table 2: UDP roundtrip 475 us with one guard rising to 530 with 50.
//     Slope (530-475)/49 = 1.12 per guard per roundtrip; each roundtrip
//     evaluates the guard list twice (once per direction at the receiving
//     machine), so NetGuardEval = 0.56. The 475 us base is assembled from
//     wire time (see netwire), Interrupt = 35, ProtoLayer = 18,
//     SocketOp = 12, ContextSwitch = 12 and SyscallTrap = 6; see
//     EXPERIMENTS.md for the full budget.
//   - Table 3 / §3.2: the preview workload's kernel share uses the same
//     constants; FSOp = 4 and PageFaultEntry = 8 are set so that the
//     simulated breakdown lands near the paper's 6.8 s kernel /
//     0.12 s events split.
func AlphaModel() *Model {
	return newModel(map[Kind]Duration{
		CallDirect:         Micros(0.10),
		CallDirectArg:      Micros(0.01),
		DispatchEntry:      Micros(0.14),
		DispatchEntryArg:   Micros(0.11),
		InlineEntry:        Micros(0.184),
		GuardIndirect:      Micros(0.115),
		HandlerIndirect:    Micros(0.116),
		BindingIndirectArg: Micros(0.009),
		GuardInline:        Micros(0.023),
		HandlerInline:      Micros(0.023),
		BindingInlineArg:   Micros(0.012),
		ResultMerge:        Micros(0.08),
		ArgCopy:            Micros(0.025),
		PlanCompileBase:    Micros(150),
		PlanCompileBinding: Micros(3.03),
		ThreadSpawnBase:    Micros(38),
		ThreadSpawnArg:     Micros(10.4),
		ContextSwitch:      Micros(12),
		SyscallTrap:        Micros(6),
		Interrupt:          Micros(35),
		NetGuardEval:       Micros(0.445),
		ProtoLayer:         Micros(14),
		SocketOp:           Micros(12),
		PageFaultEntry:     Micros(8),
		FSOp:               Micros(4),
	})
}
