package spin

import (
	"context"

	"spin/internal/dispatch"
	"spin/internal/rtti"
)

// This file provides the typed generic layer over the untyped dispatcher.
// In SPIN, Modula-3's type system made every event a typed procedure name:
// raising and handling were statically checked. Go generics restore that
// property: a typed event's Raise takes exactly the declared parameter
// types, and handlers installed through the typed wrappers cannot
// mismatch the signature.
//
// The rtti signature is derived from the type parameters' zero values:
// integer kinds map to WORD, string to TEXT, bool to BOOLEAN, and types
// implementing rtti.Described report themselves; everything else is
// REFANY. An explicit signature can always be used via the untyped API.

// typeOfParam maps a type parameter to its rtti type.
func typeOfParam[T any]() rtti.Type {
	var zero T
	return rtti.TypeOf(zero)
}

// handlerProc builds the descriptor for a typed handler.
func handlerProc(name string, m *Module, sig Signature) *Proc {
	return &rtti.Proc{Name: name, Module: m, Sig: sig}
}

// guardProc builds the descriptor for a typed guard (FUNCTIONAL, boolean
// result).
func guardProc(name string, m *Module, args []Type) *Proc {
	return &rtti.Proc{Name: name, Module: m, Functional: true,
		Sig: rtti.Signature{Args: args, Result: rtti.Bool}}
}

// asT safely converts a raise argument to the declared parameter type.
func asT[T any](v any) T {
	t, _ := v.(T)
	return t
}

// event is embedded in every typed event and carries the methods they
// share.
type event struct{ ev *dispatch.Event }

// Underlying exposes the untyped event for advanced manipulation
// (authorizers, result handlers, ordering queries).
func (e *event) Underlying() *Event { return e.ev }

// Trace enables (or, with nil, disables) dispatch tracing for this event.
func (e *event) Trace(t *Tracer) { e.ev.Trace(t) }

// SetAdmission gives the event a bounded admission queue under pol, or
// removes it with nil (see Event.SetAdmission).
func (e *event) SetAdmission(pol *AdmitPolicy) { e.ev.SetAdmission(pol) }

// ---- Event0: procedures with no parameters and no result ----

// Event0 is a typed event with no parameters.
type Event0 struct{ event }

// NewEvent0 defines a typed no-parameter event.
func NewEvent0(d *Dispatcher, name string, opts ...dispatch.EventOption) (*Event0, error) {
	ev, err := d.DefineEvent(name, rtti.Sig(nil), opts...)
	if err != nil {
		return nil, err
	}
	return &Event0{event{ev}}, nil
}

// Raise announces the event through the zero-allocation arity-specialized
// path.
func (e *Event0) Raise() error {
	_, err := e.ev.Raise0()
	return err
}

// Install registers a typed handler.
func (e *Event0) Install(name string, m *Module, fn func(), opts ...dispatch.InstallOption) (*Binding, error) {
	h := Handler{Proc: handlerProc(name, m, e.ev.Signature()),
		Fn: func(clo any, args []any) any { fn(); return nil }}
	return e.ev.Install(h, opts...)
}

// InstallCtx registers a typed cancellation-aware handler: the context is
// cancelled when a deadline watchdog (Ephemeral or Async+WithDeadline
// under a fault policy) abandons the invocation.
func (e *Event0) InstallCtx(name string, m *Module, fn func(context.Context), opts ...dispatch.InstallOption) (*Binding, error) {
	h := Handler{Proc: handlerProc(name, m, e.ev.Signature()),
		CtxFn: func(ctx context.Context, clo any, args []any) any { fn(ctx); return nil }}
	return e.ev.Install(h, opts...)
}

// ---- Event1 ----

// Event1 is a typed event with one parameter.
type Event1[A1 any] struct{ event }

// NewEvent1 defines a typed one-parameter event.
func NewEvent1[A1 any](d *Dispatcher, name string, opts ...dispatch.EventOption) (*Event1[A1], error) {
	ev, err := d.DefineEvent(name, rtti.Sig(nil, typeOfParam[A1]()), opts...)
	if err != nil {
		return nil, err
	}
	return &Event1[A1]{event{ev}}, nil
}

// Raise announces the event through the arity-specialized path: the
// argument travels in a pooled fixed-size frame, not a fresh []any.
func (e *Event1[A1]) Raise(a1 A1) error {
	_, err := e.ev.Raise1(a1)
	return err
}

// RaiseAsync announces the event asynchronously.
func (e *Event1[A1]) RaiseAsync(a1 A1) error {
	return e.ev.RaiseAsync(a1)
}

// Install registers a typed handler.
func (e *Event1[A1]) Install(name string, m *Module, fn func(A1), opts ...dispatch.InstallOption) (*Binding, error) {
	h := Handler{Proc: handlerProc(name, m, e.ev.Signature()),
		Fn: func(clo any, args []any) any { fn(asT[A1](args[0])); return nil }}
	return e.ev.Install(h, opts...)
}

// InstallCtx registers a typed cancellation-aware handler.
func (e *Event1[A1]) InstallCtx(name string, m *Module, fn func(context.Context, A1), opts ...dispatch.InstallOption) (*Binding, error) {
	h := Handler{Proc: handlerProc(name, m, e.ev.Signature()),
		CtxFn: func(ctx context.Context, clo any, args []any) any {
			fn(ctx, asT[A1](args[0]))
			return nil
		}}
	return e.ev.Install(h, opts...)
}

// Guard builds a typed FUNCTIONAL guard for this event.
func (e *Event1[A1]) Guard(name string, m *Module, fn func(A1) bool) Guard {
	return Guard{
		Proc: guardProc(name, m, e.ev.Signature().Args),
		Fn:   func(clo any, args []any) bool { return fn(asT[A1](args[0])) },
	}
}

// ---- Event2 ----

// Event2 is a typed event with two parameters — the shape of the paper's
// MachineTrap.Syscall(strand, savedState).
type Event2[A1, A2 any] struct{ event }

// NewEvent2 defines a typed two-parameter event.
func NewEvent2[A1, A2 any](d *Dispatcher, name string, opts ...dispatch.EventOption) (*Event2[A1, A2], error) {
	ev, err := d.DefineEvent(name, rtti.Sig(nil, typeOfParam[A1](), typeOfParam[A2]()), opts...)
	if err != nil {
		return nil, err
	}
	return &Event2[A1, A2]{event{ev}}, nil
}

// Raise announces the event through the arity-specialized path.
func (e *Event2[A1, A2]) Raise(a1 A1, a2 A2) error {
	_, err := e.ev.Raise2(a1, a2)
	return err
}

// RaiseAsync announces the event asynchronously.
func (e *Event2[A1, A2]) RaiseAsync(a1 A1, a2 A2) error {
	return e.ev.RaiseAsync(a1, a2)
}

// Install registers a typed handler.
func (e *Event2[A1, A2]) Install(name string, m *Module, fn func(A1, A2), opts ...dispatch.InstallOption) (*Binding, error) {
	h := Handler{Proc: handlerProc(name, m, e.ev.Signature()),
		Fn: func(clo any, args []any) any {
			fn(asT[A1](args[0]), asT[A2](args[1]))
			return nil
		}}
	return e.ev.Install(h, opts...)
}

// InstallCtx registers a typed cancellation-aware handler.
func (e *Event2[A1, A2]) InstallCtx(name string, m *Module, fn func(context.Context, A1, A2), opts ...dispatch.InstallOption) (*Binding, error) {
	h := Handler{Proc: handlerProc(name, m, e.ev.Signature()),
		CtxFn: func(ctx context.Context, clo any, args []any) any {
			fn(ctx, asT[A1](args[0]), asT[A2](args[1]))
			return nil
		}}
	return e.ev.Install(h, opts...)
}

// Guard builds a typed FUNCTIONAL guard for this event.
func (e *Event2[A1, A2]) Guard(name string, m *Module, fn func(A1, A2) bool) Guard {
	return Guard{
		Proc: guardProc(name, m, e.ev.Signature().Args),
		Fn: func(clo any, args []any) bool {
			return fn(asT[A1](args[0]), asT[A2](args[1]))
		},
	}
}

// ---- Event3 ----

// Event3 is a typed event with three parameters.
type Event3[A1, A2, A3 any] struct{ event }

// NewEvent3 defines a typed three-parameter event.
func NewEvent3[A1, A2, A3 any](d *Dispatcher, name string, opts ...dispatch.EventOption) (*Event3[A1, A2, A3], error) {
	ev, err := d.DefineEvent(name,
		rtti.Sig(nil, typeOfParam[A1](), typeOfParam[A2](), typeOfParam[A3]()), opts...)
	if err != nil {
		return nil, err
	}
	return &Event3[A1, A2, A3]{event{ev}}, nil
}

// Raise announces the event through the arity-specialized path.
func (e *Event3[A1, A2, A3]) Raise(a1 A1, a2 A2, a3 A3) error {
	_, err := e.ev.Raise3(a1, a2, a3)
	return err
}

// Install registers a typed handler.
func (e *Event3[A1, A2, A3]) Install(name string, m *Module, fn func(A1, A2, A3), opts ...dispatch.InstallOption) (*Binding, error) {
	h := Handler{Proc: handlerProc(name, m, e.ev.Signature()),
		Fn: func(clo any, args []any) any {
			fn(asT[A1](args[0]), asT[A2](args[1]), asT[A3](args[2]))
			return nil
		}}
	return e.ev.Install(h, opts...)
}

// Guard builds a typed FUNCTIONAL guard for this event.
func (e *Event3[A1, A2, A3]) Guard(name string, m *Module, fn func(A1, A2, A3) bool) Guard {
	return Guard{
		Proc: guardProc(name, m, e.ev.Signature().Args),
		Fn: func(clo any, args []any) bool {
			return fn(asT[A1](args[0]), asT[A2](args[1]), asT[A3](args[2]))
		},
	}
}

// ---- FuncEvent: events that return a value ----

// FuncEvent0 is a typed result-returning event with no parameters.
type FuncEvent0[R any] struct{ event }

// NewFuncEvent0 defines a typed result event.
func NewFuncEvent0[R any](d *Dispatcher, name string, opts ...dispatch.EventOption) (*FuncEvent0[R], error) {
	ev, err := d.DefineEvent(name, rtti.Signature{Result: typeOfParam[R]()}, opts...)
	if err != nil {
		return nil, err
	}
	return &FuncEvent0[R]{event{ev}}, nil
}

// Raise announces the event and returns the merged result.
func (e *FuncEvent0[R]) Raise() (R, error) {
	res, err := e.ev.Raise0()
	return asT[R](res), err
}

// Install registers a typed handler.
func (e *FuncEvent0[R]) Install(name string, m *Module, fn func() R, opts ...dispatch.InstallOption) (*Binding, error) {
	h := Handler{Proc: handlerProc(name, m, e.ev.Signature()),
		Fn: func(clo any, args []any) any { return fn() }}
	return e.ev.Install(h, opts...)
}

// ---- FuncEvent1 ----

// FuncEvent1 is a typed result-returning event with one parameter.
type FuncEvent1[A1, R any] struct{ event }

// NewFuncEvent1 defines a typed result event.
func NewFuncEvent1[A1, R any](d *Dispatcher, name string, opts ...dispatch.EventOption) (*FuncEvent1[A1, R], error) {
	ev, err := d.DefineEvent(name,
		rtti.Signature{Args: []rtti.Type{typeOfParam[A1]()}, Result: typeOfParam[R]()}, opts...)
	if err != nil {
		return nil, err
	}
	return &FuncEvent1[A1, R]{event{ev}}, nil
}

// Raise announces the event and returns the merged result.
func (e *FuncEvent1[A1, R]) Raise(a1 A1) (R, error) {
	res, err := e.ev.Raise1(a1)
	return asT[R](res), err
}

// Install registers a typed handler.
func (e *FuncEvent1[A1, R]) Install(name string, m *Module, fn func(A1) R, opts ...dispatch.InstallOption) (*Binding, error) {
	h := Handler{Proc: handlerProc(name, m, e.ev.Signature()),
		Fn: func(clo any, args []any) any { return fn(asT[A1](args[0])) }}
	return e.ev.Install(h, opts...)
}

// Guard builds a typed FUNCTIONAL guard for this event.
func (e *FuncEvent1[A1, R]) Guard(name string, m *Module, fn func(A1) bool) Guard {
	return Guard{
		Proc: guardProc(name, m, e.ev.Signature().Args),
		Fn:   func(clo any, args []any) bool { return fn(asT[A1](args[0])) },
	}
}

// ---- FuncEvent2 ----

// FuncEvent2 is a typed result-returning event with two parameters — the
// shape of the paper's VM.PageFault(space, address): BOOLEAN.
type FuncEvent2[A1, A2, R any] struct{ event }

// NewFuncEvent2 defines a typed result event.
func NewFuncEvent2[A1, A2, R any](d *Dispatcher, name string, opts ...dispatch.EventOption) (*FuncEvent2[A1, A2, R], error) {
	ev, err := d.DefineEvent(name, rtti.Signature{
		Args:   []rtti.Type{typeOfParam[A1](), typeOfParam[A2]()},
		Result: typeOfParam[R](),
	}, opts...)
	if err != nil {
		return nil, err
	}
	return &FuncEvent2[A1, A2, R]{event{ev}}, nil
}

// Raise announces the event and returns the merged result.
func (e *FuncEvent2[A1, A2, R]) Raise(a1 A1, a2 A2) (R, error) {
	res, err := e.ev.Raise2(a1, a2)
	return asT[R](res), err
}

// Install registers a typed handler.
func (e *FuncEvent2[A1, A2, R]) Install(name string, m *Module, fn func(A1, A2) R, opts ...dispatch.InstallOption) (*Binding, error) {
	h := Handler{Proc: handlerProc(name, m, e.ev.Signature()),
		Fn: func(clo any, args []any) any {
			return fn(asT[A1](args[0]), asT[A2](args[1]))
		}}
	return e.ev.Install(h, opts...)
}

// Guard builds a typed FUNCTIONAL guard for this event.
func (e *FuncEvent2[A1, A2, R]) Guard(name string, m *Module, fn func(A1, A2) bool) Guard {
	return Guard{
		Proc: guardProc(name, m, e.ev.Signature().Args),
		Fn: func(clo any, args []any) bool {
			return fn(asT[A1](args[0]), asT[A2](args[1]))
		},
	}
}
