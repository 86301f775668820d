package rtti

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestBaseTypeAssignability(t *testing.T) {
	if !Word.AssignableFrom(Word) {
		t.Error("Word must accept Word")
	}
	if Word.AssignableFrom(Bool) {
		t.Error("Word must not accept Bool")
	}
	if Bool.AssignableFrom(Text) {
		t.Error("Bool must not accept Text")
	}
}

func TestRefSubtyping(t *testing.T) {
	animal := NewRef("Animal", nil)
	dog := NewRef("Dog", animal)
	cat := NewRef("Cat", animal)
	poodle := NewRef("Poodle", dog)

	if !RefAny.AssignableFrom(poodle) {
		t.Error("REFANY must accept any reference type")
	}
	if !animal.AssignableFrom(dog) || !animal.AssignableFrom(poodle) {
		t.Error("supertype must accept transitive subtypes")
	}
	if dog.AssignableFrom(cat) {
		t.Error("sibling types must not be assignable")
	}
	if dog.AssignableFrom(animal) {
		t.Error("subtype must not accept its supertype")
	}
	if poodle.Super() != dog {
		t.Error("Super() broken")
	}
	if animal.Super() != RefAny {
		t.Error("nil super must default to REFANY")
	}
	// In this adaptation REFANY doubles as Go's any: it accepts scalars
	// too, since closures may carry boxed words or strings.
	if !RefAny.AssignableFrom(Word) || !RefAny.AssignableFrom(Text) {
		t.Error("REFANY must accept boxed scalar types")
	}
	if RefAny.AssignableFrom(nil) {
		t.Error("REFANY must reject a nil type")
	}
}

func TestSignatureString(t *testing.T) {
	s := Sig(Bool, Word, Text)
	if got := s.String(); got != "(WORD, TEXT): BOOLEAN" {
		t.Errorf("String = %q", got)
	}
	s2 := Signature{Args: []Type{Word}, ByRef: []bool{true}}
	if got := s2.String(); got != "(VAR WORD)" {
		t.Errorf("String = %q", got)
	}
	s3 := Sig(nil)
	if got := s3.String(); got != "()" {
		t.Errorf("String = %q", got)
	}
}

func TestSignatureValidate(t *testing.T) {
	good := Sig(nil, Word, Word)
	if err := good.Validate(); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
	bad := Signature{Args: []Type{Word}, ByRef: []bool{true, false}}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched ByRef accepted")
	}
	nilArg := Signature{Args: []Type{nil}}
	if err := nilArg.Validate(); err == nil {
		t.Error("nil arg type accepted")
	}
}

func TestSignatureEqualTypes(t *testing.T) {
	a := Sig(Bool, Word, Text)
	b := Sig(Bool, Word, Text)
	if !a.EqualTypes(b) {
		t.Error("identical signatures not equal")
	}
	byref := Signature{Args: []Type{Word, Text}, ByRef: []bool{true, false}, Result: Bool}
	if !a.EqualTypes(byref) {
		t.Error("ByRef marks must not affect type equality")
	}
	if a.EqualTypes(Sig(Bool, Word)) {
		t.Error("different arity equal")
	}
	if a.EqualTypes(Sig(nil, Word, Text)) {
		t.Error("different result equal")
	}
}

func TestSignatureProps(t *testing.T) {
	s := Signature{Args: []Type{Word, Word}, ByRef: []bool{false, true}, Result: Word}
	if s.Arity() != 2 || !s.HasResult() || !s.HasByRef() {
		t.Error("signature property accessors broken")
	}
	v := Sig(nil, Word)
	if v.HasResult() || v.HasByRef() {
		t.Error("by-value void signature misreported")
	}
}

func TestModuleIdentity(t *testing.T) {
	a := NewModule("MachineTrap", "MachineTrap")
	b := NewModule("MachineTrap", "MachineTrap")
	if a == b {
		t.Error("distinct module descriptors compare equal")
	}
	if a.Name() != "MachineTrap" {
		t.Errorf("Name = %q", a.Name())
	}
	if got := a.Interfaces(); len(got) != 1 || got[0] != "MachineTrap" {
		t.Errorf("Interfaces = %v", got)
	}
	var nilMod *Module
	if nilMod.Name() != "<anonymous>" || nilMod.Interfaces() != nil {
		t.Error("nil module accessors broken")
	}
	if !strings.Contains(a.String(), "MachineTrap") {
		t.Errorf("String = %q", a.String())
	}
}

func TestModuleInterfacesCopied(t *testing.T) {
	m := NewModule("M", "I1", "I2")
	got := m.Interfaces()
	got[0] = "hacked"
	if m.Interfaces()[0] != "I1" {
		t.Error("Interfaces() exposed internal slice")
	}
}

func mkEvent() Signature { return Sig(nil, Word, Word) }

func TestCheckGuardHappyPath(t *testing.T) {
	g := &Proc{Name: "G", Sig: Sig(Bool, Word, Word), Functional: true}
	if err := g.CheckGuard(mkEvent(), nil); err != nil {
		t.Errorf("valid guard rejected: %v", err)
	}
}

func TestCheckGuardRules(t *testing.T) {
	ev := mkEvent()
	cases := []struct {
		name string
		p    *Proc
		clo  Type
		want error
	}{
		{"not functional", &Proc{Name: "G", Sig: Sig(Bool, Word, Word)}, nil, ErrNotFunc},
		{"non-bool result", &Proc{Name: "G", Sig: Sig(Word, Word, Word), Functional: true}, nil, ErrNotBoolRet},
		{"void result", &Proc{Name: "G", Sig: Sig(nil, Word, Word), Functional: true}, nil, ErrNotBoolRet},
		{"wrong arity", &Proc{Name: "G", Sig: Sig(Bool, Word), Functional: true}, nil, ErrBadSig},
		{"wrong arg type", &Proc{Name: "G", Sig: Sig(Bool, Word, Text), Functional: true}, nil, ErrBadSig},
		{"closure but no param", &Proc{Name: "G", Sig: Sig(Bool), Functional: true}, RefAny, ErrBadSig},
		{"nil proc", nil, nil, ErrNilProc},
	}
	for _, c := range cases {
		err := c.p.CheckGuard(ev, c.clo)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestCheckGuardWithClosure(t *testing.T) {
	space := NewRef("AddressSpace", nil)
	g := &Proc{
		Name:       "ImposedSyscallGuard",
		Sig:        Signature{Args: []Type{space, Word, Word}, Result: Bool},
		Functional: true,
	}
	if err := g.CheckGuard(mkEvent(), space); err != nil {
		t.Errorf("closure guard rejected: %v", err)
	}
	// A closure of an unrelated type must be rejected.
	port := NewRef("Port", nil)
	if err := g.CheckGuard(mkEvent(), port); err == nil {
		t.Error("unrelated closure type accepted")
	}
	// A subtype closure must be accepted (paper: closure type must be a
	// subtype of the parameter's reference type).
	kidSpace := NewRef("KernelSpace", space)
	if err := g.CheckGuard(mkEvent(), kidSpace); err != nil {
		t.Errorf("subtype closure rejected: %v", err)
	}
}

func TestCheckHandlerHappyPath(t *testing.T) {
	h := &Proc{Name: "H", Sig: Sig(nil, Word, Word)}
	if err := h.CheckHandler(mkEvent(), nil); err != nil {
		t.Errorf("valid handler rejected: %v", err)
	}
}

func TestCheckHandlerRules(t *testing.T) {
	ev := Sig(Bool, Word)
	cases := []struct {
		name string
		p    *Proc
		clo  Type
		ok   bool
	}{
		{"exact match", &Proc{Name: "H", Sig: Sig(Bool, Word)}, nil, true},
		{"wrong result", &Proc{Name: "H", Sig: Sig(Word, Word)}, nil, false},
		{"missing result", &Proc{Name: "H", Sig: Sig(nil, Word)}, nil, false},
		{"wrong arity", &Proc{Name: "H", Sig: Sig(Bool)}, nil, false},
		{"wrong arg", &Proc{Name: "H", Sig: Sig(Bool, Text)}, nil, false},
		{"with closure", &Proc{Name: "H", Sig: Signature{Args: []Type{RefAny, Word}, Result: Bool}}, RefAny, true},
		{"closure missing param", &Proc{Name: "H", Sig: Sig(Bool, Word)}, RefAny, false},
	}
	for _, c := range cases {
		err := c.p.CheckHandler(ev, c.clo)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestCheckHandlerByRefFilterAllowed(t *testing.T) {
	// Paper §2.4: a filter is allowed to take some parameters by
	// reference; the types must still match.
	ev := mkEvent()
	filter := &Proc{
		Name: "F",
		Sig:  Signature{Args: []Type{Word, Word}, ByRef: []bool{true, false}},
	}
	if err := filter.CheckHandler(ev, nil); err != nil {
		t.Errorf("by-ref filter rejected: %v", err)
	}
}

type described struct{ t Type }

func (d described) RTTIType() Type { return d.t }

func TestTypeOf(t *testing.T) {
	space := NewRef("Space", nil)
	cases := []struct {
		v    any
		want Type
	}{
		{nil, RefAny},
		{true, Bool},
		{"x", Text},
		{42, Word},
		{uint64(1), Word},
		{int8(-1), Word},
		{3.14, Float},
		{float32(1), Float},
		{described{space}, Type(space)},
		{struct{}{}, RefAny},
	}
	for _, c := range cases {
		if got := TypeOf(c.v); got != c.want {
			t.Errorf("TypeOf(%#v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// Property: assignability along randomly generated subtype chains is
// reflexive and transitive downward, never upward.
func TestSubtypeChainProperty(t *testing.T) {
	f := func(depth uint8) bool {
		n := int(depth%20) + 2
		chain := make([]*RefType, n)
		chain[0] = NewRef("T0", nil)
		for i := 1; i < n; i++ {
			chain[i] = NewRef("T", chain[i-1])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got := chain[i].AssignableFrom(chain[j])
				want := j >= i // deeper (j) is a subtype of shallower (i)
				if got != want {
					return false
				}
			}
			if !RefAny.AssignableFrom(chain[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestProcValidate(t *testing.T) {
	var p *Proc
	if err := p.Validate(); !errors.Is(err, ErrNilProc) {
		t.Error("nil proc must fail validation")
	}
	bad := &Proc{Name: "B", Sig: Signature{Args: []Type{Word}, ByRef: []bool{true, true}}}
	if err := bad.Validate(); !errors.Is(err, ErrBadSig) {
		t.Error("bad signature must fail validation")
	}
}

// Super returns the declared supertype (nil only for REFANY itself).
func (r *RefType) Super() *RefType { return r.super }
