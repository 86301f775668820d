// Package rtti reproduces the slice of the Modula-3 runtime type
// information that the SPIN dispatcher depends on (paper §2.4, §2.5, §3).
//
// In SPIN, events are Modula-3 procedure signatures; the dispatcher uses
// compiler-generated type information to typecheck handlers and guards at
// installation time, to verify the FUNCTIONAL (side-effect free) and
// EPHEMERAL (terminable) attributes, and to establish authority over an
// event through module descriptors obtainable only inside the defining
// module (the THIS_MODULE() primitive of [Hsieh et al. 96]).
//
// Go has no Modula-3 compiler in the loop, so this package substitutes
// explicitly declared descriptors: modules construct their own *Module and
// *Proc values and the dispatcher checks them exactly where SPIN checks the
// compiler's metadata. The public spin package layers Go generics on top,
// restoring compile-time signature checking for typed event wrappers.
package rtti

import (
	"errors"
	"fmt"
	"strings"
)

// Type describes a value type in an event signature. The type system is
// deliberately small: word-sized scalars, booleans, strings, and reference
// types with single inheritance (enough to model Modula-3's REFANY and
// subtype rule for closures, paper §2.4: "the type of the associated
// closure must be a subtype of that reference type").
type Type interface {
	// String returns the type's name for diagnostics.
	String() string
	// AssignableFrom reports whether a value of type u may be passed
	// where this type is expected (reflexive; for reference types it
	// additionally accepts subtypes).
	AssignableFrom(u Type) bool
}

type baseType struct{ name string }

func (b *baseType) String() string { return b.name }

func (b *baseType) AssignableFrom(u Type) bool { return Type(b) == u }

// Predeclared scalar types.
var (
	// Word is a machine word (integers, ports, addresses, register
	// values).
	Word Type = &baseType{"WORD"}
	// Bool is the boolean type; every guard must return it.
	Bool Type = &baseType{"BOOLEAN"}
	// Text is an immutable string (Modula-3 TEXT).
	Text Type = &baseType{"TEXT"}
	// Float is a floating-point scalar.
	Float Type = &baseType{"FLOAT"}
)

// RefType is a reference type with an optional supertype. REFANY is the
// root of the reference hierarchy.
type RefType struct {
	name  string
	super *RefType
}

// RefAny is the root reference type (Modula-3 REFANY): every reference
// type is assignable to it.
var RefAny = &RefType{name: "REFANY"}

// NewRef declares a reference type with the given supertype; a nil super
// means the type derives directly from REFANY.
func NewRef(name string, super *RefType) *RefType {
	if super == nil {
		super = RefAny
	}
	return &RefType{name: name, super: super}
}

func (r *RefType) String() string { return r.name }

// AssignableFrom implements the subtype rule: u must be r or a transitive
// subtype of r. REFANY itself accepts every type: in this Go adaptation it
// plays the role of Go's any, so scalars boxed into closures are admitted
// where Modula-3 would have auto-wrapped them in a REF cell.
func (r *RefType) AssignableFrom(u Type) bool {
	if r == RefAny {
		return u != nil
	}
	ur, ok := u.(*RefType)
	if !ok {
		return false
	}
	for t := ur; t != nil; t = t.super {
		if t == r {
			return true
		}
	}
	return false
}

// Signature is a procedure signature: the shape shared by an event, its
// handlers, and (modulo the boolean result) its guards. ByRef marks
// parameters a filter handler takes by reference (paper §2.3 "Passing
// arguments"); for events and plain handlers every parameter is by value.
type Signature struct {
	Args   []Type
	ByRef  []bool // nil, or len(Args) entries
	Result Type   // nil for proper procedures (no return value)
}

// Sig builds a by-value signature. Result may be nil.
func Sig(result Type, args ...Type) Signature {
	return Signature{Args: args, Result: result}
}

// Arity returns the number of parameters.
func (s Signature) Arity() int { return len(s.Args) }

// HasResult reports whether the signature returns a value.
func (s Signature) HasResult() bool { return s.Result != nil }

// HasByRef reports whether any parameter is taken by reference.
func (s Signature) HasByRef() bool {
	for _, r := range s.ByRef {
		if r {
			return true
		}
	}
	return false
}

// Validate checks internal consistency (ByRef length) and that no type is
// nil.
func (s Signature) Validate() error {
	if s.ByRef != nil && len(s.ByRef) != len(s.Args) {
		return fmt.Errorf("rtti: ByRef has %d entries for %d args", len(s.ByRef), len(s.Args))
	}
	for i, a := range s.Args {
		if a == nil {
			return fmt.Errorf("rtti: nil type for argument %d", i)
		}
	}
	return nil
}

// EqualTypes reports whether two signatures have identical argument and
// result types, ignoring ByRef marks (the paper allows a filter to differ
// from the event only in by-reference marking).
func (s Signature) EqualTypes(t Signature) bool {
	if len(s.Args) != len(t.Args) {
		return false
	}
	for i := range s.Args {
		if s.Args[i] != t.Args[i] {
			return false
		}
	}
	return s.Result == t.Result
}

// String renders the signature in a Modula-3-flavoured form, e.g.
// "(WORD, REFANY): BOOLEAN".
func (s Signature) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, a := range s.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		if i < len(s.ByRef) && s.ByRef[i] {
			sb.WriteString("VAR ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteByte(')')
	if s.Result != nil {
		sb.WriteString(": ")
		sb.WriteString(s.Result.String())
	}
	return sb.String()
}

// Module is a compilation-unit descriptor. In SPIN a module can obtain its
// own descriptor via THIS_MODULE() and nothing else can forge it; the
// dispatcher compares descriptor identity to decide authority (paper §2.5).
// Here identity is pointer identity of the *Module value: a package that
// keeps its *Module unexported is, to the rest of the program, the only
// code that can present it.
type Module struct {
	name string
	// interfaces lists the interface names this module exports; the
	// linker consults it during symbol resolution.
	interfaces []string
}

// NewModule declares a module descriptor. The name is for diagnostics
// only; authority checks use pointer identity, never the name.
func NewModule(name string, interfaces ...string) *Module {
	return &Module{name: name, interfaces: interfaces}
}

// Name returns the module's diagnostic name.
func (m *Module) Name() string {
	if m == nil {
		return "<anonymous>"
	}
	return m.name
}

// Interfaces returns the names of interfaces the module exports.
func (m *Module) Interfaces() []string {
	if m == nil {
		return nil
	}
	return append([]string(nil), m.interfaces...)
}

func (m *Module) String() string { return "MODULE " + m.Name() }

// Proc describes a procedure: its defining module, signature, and the
// language attributes the dispatcher enforces.
type Proc struct {
	// Name is the procedure's qualified name, e.g.
	// "MachEmulator.Syscall".
	Name string
	// Module is the defining compilation unit; nil means the procedure
	// is anonymous (a Go closure), which is acceptable everywhere except
	// where authority must be demonstrated.
	Module *Module
	// Sig is the procedure's signature.
	Sig Signature
	// Functional asserts the procedure is side-effect free (Modula-3
	// FUNCTIONAL, verified there by the compiler). Guards must carry it.
	Functional bool
	// Ephemeral asserts the procedure invites early termination
	// (Modula-3 EPHEMERAL). Only ephemeral handlers may be terminated.
	Ephemeral bool
}

// Errors returned by descriptor validation.
var (
	ErrNilProc     = errors.New("rtti: nil procedure descriptor")
	ErrBadSig      = errors.New("rtti: invalid signature")
	ErrNotBoolRet  = errors.New("rtti: guard must return BOOLEAN")
	ErrNotFunc     = errors.New("rtti: guard must be declared FUNCTIONAL")
	ErrNotEphem    = errors.New("rtti: handler is not declared EPHEMERAL")
	ErrNoAuthority = errors.New("rtti: module descriptor does not define this procedure")
)

// Validate checks the descriptor's signature.
func (p *Proc) Validate() error {
	if p == nil {
		return ErrNilProc
	}
	if err := p.Sig.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSig, err)
	}
	return nil
}

// CheckGuard verifies that p is usable as a guard for an event with
// signature event and the given closure type (nil when the guard takes no
// closure): FUNCTIONAL, boolean result, and argument types equal to the
// event's, optionally preceded by a closure parameter.
func (p *Proc) CheckGuard(event Signature, closure Type) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if !p.Functional {
		return fmt.Errorf("%w: %s", ErrNotFunc, p.Name)
	}
	if p.Sig.Result != Bool {
		return fmt.Errorf("%w: %s has result %v", ErrNotBoolRet, p.Name, p.Sig.Result)
	}
	want := event.Args
	got := p.Sig.Args
	if closure != nil {
		if len(got) == 0 {
			return fmt.Errorf("%w: guard %s installed with a closure must take a closure parameter", ErrBadSig, p.Name)
		}
		if !got[0].AssignableFrom(closure) {
			return fmt.Errorf("%w: guard %s closure parameter %v cannot accept %v", ErrBadSig, p.Name, got[0], closure)
		}
		got = got[1:]
	}
	if len(got) != len(want) {
		return fmt.Errorf("%w: guard %s has %d event args, event has %d", ErrBadSig, p.Name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%w: guard %s arg %d is %v, event expects %v", ErrBadSig, p.Name, i, got[i], want[i])
		}
	}
	return nil
}

// CheckHandler verifies that p is usable as a handler for an event with
// signature event and the given closure type: argument and result types
// equal to the event's, optionally preceded by a closure parameter whose
// type the closure's type is a subtype of. Filters may additionally mark
// parameters by reference; marks are permitted but types must match.
func (p *Proc) CheckHandler(event Signature, closure Type) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Sig.Result != event.Result {
		return fmt.Errorf("%w: handler %s result %v, event result %v", ErrBadSig, p.Name, p.Sig.Result, event.Result)
	}
	got := p.Sig.Args
	if closure != nil {
		if len(got) == 0 {
			return fmt.Errorf("%w: handler %s installed with a closure must take a closure parameter", ErrBadSig, p.Name)
		}
		if !got[0].AssignableFrom(closure) {
			return fmt.Errorf("%w: handler %s closure parameter %v cannot accept %v", ErrBadSig, p.Name, got[0], closure)
		}
		got = got[1:]
	}
	if len(got) != len(event.Args) {
		return fmt.Errorf("%w: handler %s has %d event args, event has %d", ErrBadSig, p.Name, len(got), len(event.Args))
	}
	for i := range event.Args {
		if got[i] != event.Args[i] {
			return fmt.Errorf("%w: handler %s arg %d is %v, event expects %v", ErrBadSig, p.Name, i, got[i], event.Args[i])
		}
	}
	return nil
}

// TypeOf maps a runtime Go value onto the rtti type lattice, for the
// dynamic checks the dispatcher performs on closures and raise arguments.
// Typed references are described by Described values; plain Go values map
// to the scalar types; everything else is REFANY.
func TypeOf(v any) Type {
	switch v := v.(type) {
	case nil:
		return RefAny
	case bool:
		return Bool
	case string:
		return Text
	case int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64, uintptr:
		return Word
	case float32, float64:
		return Float
	case Described:
		return v.RTTIType()
	default:
		return RefAny
	}
}

// Described is implemented by reference values that know their rtti type;
// substrate object types (strands, address spaces, sockets) implement it so
// closure subtype checks work on live values.
type Described interface {
	RTTIType() Type
}
