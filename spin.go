// Package spin is a Go reproduction of the event-based dynamic binding
// mechanism of the SPIN extensible operating system, as described in
// "Dynamic Binding for an Extensible System" (Pardyak & Bershad, OSDI
// 1996).
//
// Events are defined with the granularity and syntax of procedures but
// provide extended procedure-call semantics: conditional execution through
// guards, multicast through multiple handlers, asynchrony, filters, result
// merging, deterministic handler ordering, and authority-based access
// control. The dispatcher bypasses itself entirely for the common case of
// a single unguarded handler and compiles richer events into specialized
// dispatch plans (the runtime-code-generation analog; see
// internal/codegen).
//
// The package exposes three layers:
//
//   - the untyped core (Dispatcher, Event, Handler, Guard), a direct
//     rendering of the paper's Dispatcher interface;
//   - typed generic wrappers (Event0..Event3, FuncEvent0..FuncEvent2)
//     restoring the "every procedure is an event" feel with compile-time
//     signature checking, the role Modula-3's type system played;
//   - the whole-system surface (Boot, Machine) that assembles the kernel
//     substrates — dispatcher, safe dynamic linker, strand scheduler, trap
//     module, and virtual memory — the way the SPIN kernel did.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package spin

import (
	"spin/internal/admit"
	"spin/internal/codegen"
	"spin/internal/dispatch"
	"spin/internal/fault"
	"spin/internal/kernel"
	"spin/internal/linker"
	"spin/internal/rtti"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// Core dispatcher types (paper §2).
type (
	// Dispatcher oversees event-based communication.
	Dispatcher = dispatch.Dispatcher
	// Event is a dynamically bindable procedure name.
	Event = dispatch.Event
	// Binding is one installed handler on one event.
	Binding = dispatch.Binding
	// Handler pairs a procedure descriptor with its implementation.
	Handler = dispatch.Handler
	// Guard is a side-effect-free predicate filtering handler invocation.
	Guard = dispatch.Guard
	// Order is a handler ordering constraint.
	Order = dispatch.Order
	// AuthRequest is what an event's authorizer evaluates.
	AuthRequest = dispatch.AuthRequest
	// AuthorizerFn approves or denies event manipulation.
	AuthorizerFn = dispatch.AuthorizerFn
	// HandlerFn is the untyped handler calling convention.
	HandlerFn = dispatch.HandlerFn
	// GuardFn is the untyped guard calling convention.
	GuardFn = dispatch.GuardFn
	// CtxHandlerFn is the cancellation-aware handler calling convention;
	// the context is cancelled when a deadline watchdog abandons the
	// invocation.
	CtxHandlerFn = dispatch.CtxHandlerFn
	// ResultFn folds multiple handler results.
	ResultFn = dispatch.ResultFn
	// Stats is an event's dispatch statistics snapshot.
	Stats = dispatch.Stats
	// BatchOutcome reports how one batch's frames were disposed.
	BatchOutcome = dispatch.BatchOutcome
)

// Fault isolation (see internal/fault and DESIGN.md decision 12): handler
// panics, deadline overruns, and virtual-time budget overruns are recorded
// per binding; under an enforcing FaultPolicy, bindings that exhaust their
// budget are quarantined — compiled out of their event's dispatch plan —
// then re-admitted on probation after exponential backoff.
type (
	// FaultPolicy sets fault budgets, deadlines, and backoff.
	FaultPolicy = fault.Policy
	// FaultRecord is one recorded fault.
	FaultRecord = fault.Record
	// FaultLedger accumulates fault records and budget state.
	FaultLedger = fault.Ledger
	// FaultState is a binding's lifecycle state (Healthy, Quarantined,
	// Probation).
	FaultState = fault.State
	// FaultInjector deterministically injects panics, delays, and bad
	// results into handlers and guards, for fault-drill testing.
	FaultInjector = fault.Injector
)

var (
	// WithFaultPolicy enables fault enforcement on a dispatcher.
	WithFaultPolicy = dispatch.WithFaultPolicy
	// DefaultFaultPolicy is a sensible enforcing policy (budget 3,
	// exponential backoff from 100ms).
	DefaultFaultPolicy = fault.DefaultPolicy
	// NewFaultInjector creates an empty fault-injection harness.
	NewFaultInjector = fault.NewInjector
	// WithDeadline attaches a watchdog deadline to an async handler.
	WithDeadline = dispatch.WithDeadline
)

// Overload control (see internal/admit and DESIGN.md decision 13):
// asynchronous raises and handler invocations pass through bounded
// admission queues drained by a shared size-capped worker pool; a
// pluggable policy decides what happens at capacity, and a degradation
// controller disables optional bindings by priority class as load crosses
// configured thresholds.
type (
	// AdmissionConfig configures a dispatcher's overload control.
	AdmissionConfig = dispatch.AdmissionConfig
	// AdmitPolicy is one event's admission policy (mode, queue depth,
	// block timeout, retry schedule).
	AdmitPolicy = admit.Policy
	// AdmitMode selects the full-queue behaviour (Block, Shed,
	// ShedOldest, Coalesce).
	AdmitMode = admit.Mode
	// AdmitLevel is one rung of the degradation ladder.
	AdmitLevel = admit.Level
	// AdmitQueueStats is one admission queue's accounting snapshot.
	AdmitQueueStats = admit.QueueStats
	// AdmitPoolStats is the shared worker pool's snapshot.
	AdmitPoolStats = admit.PoolStats
	// OverloadError is the typed error a shed asynchronous raise returns;
	// test with errors.Is(err, ErrOverload).
	OverloadError = admit.OverloadError
)

// Admission policy modes.
const (
	AdmitBlock      = admit.Block
	AdmitShed       = admit.Shed
	AdmitShedOldest = admit.ShedOldest
	AdmitCoalesce   = admit.Coalesce
)

var (
	// ErrOverload is the sentinel every shed submission wraps.
	ErrOverload = admit.ErrOverload
	// WithAdmission enables overload control on a dispatcher.
	WithAdmission = dispatch.WithAdmission
	// WithPriority assigns a handler installation a degradation priority
	// class (0 = essential, never disabled).
	WithPriority = dispatch.WithPriority
)

// Runtime type information (paper §2.4-2.5).
type (
	// Module is a compilation-unit descriptor; presenting it
	// demonstrates authority (THIS_MODULE).
	Module = rtti.Module
	// Proc is a procedure descriptor: module, signature, FUNCTIONAL and
	// EPHEMERAL attributes.
	Proc = rtti.Proc
	// Signature is a procedure signature.
	Signature = rtti.Signature
	// Type is an rtti value type.
	Type = rtti.Type
)

// Dispatch tracing (see internal/trace): spans reconstruct one raise's
// causal structure — guard evaluations, handler invocations, result
// merges — with tracing compiled into the dispatch plan only when enabled,
// so the zero-allocation fast path is untouched when off.
type (
	// Tracer owns a span ring and records sampled raises.
	Tracer = trace.Tracer
	// TraceConfig sizes the span ring and sets the 1-in-N sampling rate.
	TraceConfig = trace.Config
	// Span is one decoded trace record.
	Span = trace.Span
)

// NewTracer creates a tracer; pass it to WithTracer (dispatcher-wide),
// MachineConfig.Trace (machine-wide), or Event.Trace (per event).
var NewTracer = trace.New

// WithTracer enables dispatch tracing for every event defined on the
// dispatcher.
var WithTracer = dispatch.WithTracer

// Pred is an inlinable guard predicate; guards built from predicates are
// FUNCTIONAL by construction and eligible for inlining into the generated
// dispatch routine.
type Pred = codegen.Pred

// Body is an inlinable handler body.
type Body = codegen.Body

// Whole-system types.
type (
	// Machine is a booted kernel instance.
	Machine = kernel.Machine
	// MachineConfig selects how a machine boots.
	MachineConfig = kernel.Config
	// ExtensionImage is a dynamically loadable extension.
	ExtensionImage = linker.Image
	// Interface is a named set of linkable symbols.
	Interface = linker.Interface
	// LinkContext gives an extension initializer its resolved imports.
	LinkContext = linker.Context
)

// Options and constructors, re-exported from the core.
var (
	// NewDispatcher creates a stand-alone dispatcher (no kernel).
	NewDispatcher = dispatch.New
	// WithIntrinsic installs an event's intrinsic handler at definition.
	WithIntrinsic = dispatch.WithIntrinsic
	// WithOwner assigns authority to an event without an intrinsic.
	WithOwner = dispatch.WithOwner
	// AsAsync makes every raise of the event asynchronous.
	AsAsync = dispatch.AsAsync
	// WithGuard attaches a guard to an installation.
	WithGuard = dispatch.WithGuard
	// WithClosure attaches an installation closure.
	WithClosure = dispatch.WithClosure
	// WithCredential attaches an opaque authorization credential.
	WithCredential = dispatch.WithCredential
	// First/Last/Before/After are the ordering constraints of §2.3.
	First  = dispatch.First
	Last   = dispatch.Last
	Before = dispatch.Before
	After  = dispatch.After
	// Async makes a single handler asynchronous.
	Async = dispatch.Async
	// Ephemeral installs a terminable handler.
	Ephemeral = dispatch.Ephemeral
	// AsFilter installs an argument-rewriting filter.
	AsFilter = dispatch.AsFilter
	// NewModule declares a module descriptor.
	NewModule = rtti.NewModule
	// Boot assembles a machine: dispatcher, linker, scheduler, trap
	// module, and VM.
	Boot = kernel.Boot
	// NewInterface builds a linkable interface.
	NewInterface = linker.NewInterface
)

// Predicate constructors for inlinable guards.
var (
	// PredTrue always passes (and is elided by the peephole optimizer).
	PredTrue = codegen.True
	// PredFalse never passes (and removes its binding entirely).
	PredFalse = codegen.False
	// PredGlobalEq compares a global cell to a constant.
	PredGlobalEq = codegen.GlobalEq
	// PredGlobalNe is its negation.
	PredGlobalNe = codegen.GlobalNe
	// PredArgEq compares a word argument to a constant.
	PredArgEq = codegen.ArgEq
	// PredArgNe is its negation.
	PredArgNe = codegen.ArgNe
	// PredArgLt passes when the argument is below the constant.
	PredArgLt = codegen.ArgLt
	// PredAnd, PredOr, PredNot combine predicates.
	PredAnd = codegen.And
	PredOr  = codegen.Or
	PredNot = codegen.Not
)

// Inline handler body constructors.
var (
	// BodyNop does nothing.
	BodyNop = codegen.Nop
	// BodyReturnConst produces a constant.
	BodyReturnConst = codegen.ReturnConst
	// BodyAddWord increments a counter cell.
	BodyAddWord = codegen.AddWord
	// BodyReturnArg echoes a raise argument.
	BodyReturnArg = codegen.ReturnArg
)

// Errors, re-exported so callers can errors.Is against them.
var (
	ErrNoHandler         = dispatch.ErrNoHandler
	ErrAmbiguousResult   = dispatch.ErrAmbiguousResult
	ErrNotAuthority      = dispatch.ErrNotAuthority
	ErrDenied            = dispatch.ErrDenied
	ErrAsyncByRef        = dispatch.ErrAsyncByRef
	ErrLinkDenied        = linker.ErrLinkDenied
	ErrModuleQuarantined = dispatch.ErrModuleQuarantined
	ErrDomainQuarantined = linker.ErrQuarantined
)

// rtti type singletons for building explicit signatures.
var (
	// Word is a machine word.
	Word = rtti.Word
	// Bool is the boolean type.
	Bool = rtti.Bool
	// Text is an immutable string.
	Text = rtti.Text
	// RefAny is the root reference type (and Go's any).
	RefAny rtti.Type = rtti.RefAny
)

// Sig builds a by-value signature; the first parameter is the result type
// (nil for none).
func Sig(result Type, args ...Type) Signature { return rtti.Sig(result, args...) }

// Micros converts microseconds (the paper's unit) to a virtual duration.
func Micros(us float64) vtime.Duration { return vtime.Micros(us) }
