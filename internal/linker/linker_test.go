package linker

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"spin/internal/rtti"
)

var (
	kernelMod = rtti.NewModule("Kernel", "MachineTrap")
	extMod    = rtti.NewModule("Extension")
	evilMod   = rtti.NewModule("Evil")
)

func kernelImage() *Image {
	iface := NewInterface("MachineTrap", kernelMod).
		Define("Syscall", "the-syscall-event").
		Define("Version", 1)
	return &Image{Name: "kernel", Module: kernelMod, Exports: []*Interface{iface}}
}

func TestLoadAndResolve(t *testing.T) {
	n := NewNexus()
	if _, err := n.Load(kernelImage()); err != nil {
		t.Fatal(err)
	}
	var got any
	ext := &Image{
		Name: "ext", Module: extMod,
		Imports: []string{"MachineTrap"},
		Init: func(ctx *Context) error {
			v, err := ctx.Interface("MachineTrap").Lookup("Syscall")
			if err != nil {
				return err
			}
			got = v
			return nil
		},
	}
	if _, err := n.Load(ext); err != nil {
		t.Fatal(err)
	}
	if got != "the-syscall-event" {
		t.Fatalf("resolved symbol = %v", got)
	}
}

func TestUnresolvedImport(t *testing.T) {
	n := NewNexus()
	_, err := n.Load(&Image{Name: "ext", Module: extMod, Imports: []string{"Nope"}})
	if !errors.Is(err, ErrUnresolved) {
		t.Fatalf("err = %v", err)
	}
	if len(n.Domains()) != 0 {
		t.Fatal("failed load left a domain behind")
	}
}

func TestLinkAuthorizerDenies(t *testing.T) {
	// §2.5: denial prevents the requester from accessing any symbols,
	// and hence events, exported by the guarded modules.
	n := NewNexus()
	dom, err := n.Load(kernelImage())
	if err != nil {
		t.Fatal(err)
	}
	err = dom.SetAuthorizer(func(req *rtti.Module, iface *Interface) bool {
		return req != evilMod
	}, kernelMod)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Load(&Image{Name: "good", Module: extMod, Imports: []string{"MachineTrap"}}); err != nil {
		t.Fatalf("legitimate extension denied: %v", err)
	}
	_, err = n.Load(&Image{Name: "evil", Module: evilMod, Imports: []string{"MachineTrap"}})
	if !errors.Is(err, ErrLinkDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestSetAuthorizerRequiresAuthority(t *testing.T) {
	n := NewNexus()
	dom, _ := n.Load(kernelImage())
	fn := func(*rtti.Module, *Interface) bool { return true }
	if err := dom.SetAuthorizer(fn, extMod); !errors.Is(err, ErrNotAuthority) {
		t.Fatalf("err = %v", err)
	}
	if err := dom.SetAuthorizer(fn, nil); !errors.Is(err, ErrNotAuthority) {
		t.Fatalf("nil proof err = %v", err)
	}
}

func TestDuplicateDomainAndInterface(t *testing.T) {
	n := NewNexus()
	if _, err := n.Load(kernelImage()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Load(kernelImage()); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup domain err = %v", err)
	}
	clash := &Image{Name: "other", Module: extMod,
		Exports: []*Interface{NewInterface("MachineTrap", extMod)}}
	if _, err := n.Load(clash); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup interface err = %v", err)
	}
}

func TestInitFailureRollsBack(t *testing.T) {
	n := NewNexus()
	_, err := n.Load(&Image{
		Name: "broken", Module: extMod,
		Exports: []*Interface{NewInterface("Broken", extMod)},
		Init:    func(ctx *Context) error { return fmt.Errorf("init exploded") },
	})
	if !errors.Is(err, ErrInitFailed) {
		t.Fatalf("err = %v", err)
	}
	if len(n.Domains()) != 0 {
		t.Fatal("rollback did not remove the domain")
	}
	// The interface name must be reusable after rollback.
	if _, err := n.Load(&Image{Name: "fixed", Module: extMod,
		Exports: []*Interface{NewInterface("Broken", extMod)}}); err != nil {
		t.Fatalf("reload after rollback: %v", err)
	}
}

func TestExtensionExportsLinkableByOthers(t *testing.T) {
	// §2: "Once installed, other extensions may link against the
	// extension's exported interfaces."
	n := NewNexus()
	_, _ = n.Load(kernelImage())
	first := &Image{
		Name: "fs", Module: extMod,
		Imports: []string{"MachineTrap"},
		Exports: []*Interface{NewInterface("FileSystem", extMod).Define("Open", "open-event")},
	}
	if _, err := n.Load(first); err != nil {
		t.Fatal(err)
	}
	var got any
	second := &Image{
		Name: "dosfs", Module: rtti.NewModule("DosFs"),
		Imports: []string{"FileSystem"},
		Init: func(ctx *Context) error {
			got, _ = ctx.Interface("FileSystem").Lookup("Open")
			return nil
		},
	}
	if _, err := n.Load(second); err != nil {
		t.Fatal(err)
	}
	if got != "open-event" {
		t.Fatalf("got = %v", got)
	}
}

func TestInterfaceSymbols(t *testing.T) {
	i := NewInterface("I", kernelMod).Define("b", 2).Define("a", 1)
	syms := i.Symbols()
	if len(syms) != 2 || syms[0] != "a" || syms[1] != "b" {
		t.Fatalf("symbols = %v", syms)
	}
	if _, err := i.Lookup("nope"); !errors.Is(err, ErrNoSuchSymbol) {
		t.Fatalf("err = %v", err)
	}
	v, err := i.Lookup("a")
	if err != nil || v != 1 {
		t.Fatalf("lookup = %v, %v", v, err)
	}
}

func TestDomainAccessors(t *testing.T) {
	n := NewNexus()
	dom, _ := n.Load(kernelImage())
	if dom.Name() != "kernel" || dom.Module() != kernelMod {
		t.Fatal("accessors broken")
	}
	if exp := dom.Exports(); len(exp) != 1 || exp[0] != "MachineTrap" {
		t.Fatalf("exports = %v", exp)
	}
	if _, err := n.Domain("kernel"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Domain("ghost"); !errors.Is(err, ErrDomainUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestContextPanicsOnUndeclaredImport(t *testing.T) {
	n := NewNexus()
	_, _ = n.Load(kernelImage())
	defer func() {
		if recover() == nil {
			t.Fatal("undeclared import access did not panic")
		}
	}()
	_, _ = n.Load(&Image{
		Name: "sneaky", Module: extMod,
		Init: func(ctx *Context) error {
			ctx.Interface("MachineTrap") // not in Imports
			return nil
		},
	})
}

func TestLoadRequiresModule(t *testing.T) {
	n := NewNexus()
	if _, err := n.Load(&Image{Name: "anon"}); err == nil {
		t.Fatal("image without module accepted")
	}
}

func TestQuarantineDeniesLinkage(t *testing.T) {
	n := NewNexus()
	if _, err := n.Load(kernelImage()); err != nil {
		t.Fatal(err)
	}
	if fresh, err := n.Quarantine("kernel"); err != nil || !fresh {
		t.Fatalf("quarantine: fresh=%v err=%v", fresh, err)
	}
	if !n.Quarantined("kernel") {
		t.Fatal("domain not reported quarantined")
	}
	_, err := n.Load(&Image{Name: "ext", Module: extMod, Imports: []string{"MachineTrap"}})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("link against quarantined domain: err = %v", err)
	}
	if was, err := n.Readmit("kernel"); err != nil || !was {
		t.Fatalf("readmit: was=%v err=%v", was, err)
	}
	if _, err := n.Load(&Image{Name: "ext", Module: extMod, Imports: []string{"MachineTrap"}}); err != nil {
		t.Fatalf("link after readmission failed: %v", err)
	}
	if _, err := n.Quarantine("ghost"); !errors.Is(err, ErrDomainUnknown) {
		t.Fatalf("quarantine unknown domain: err = %v", err)
	}
}

// TestAuthorizerDenialAfterQuarantineLeavesNoDanglingState: the satellite
// scenario — a re-link attempt that is denied by the exporter's authorizer
// while (and after) a domain quarantine must roll back completely: no
// partial domain, and the quarantined exporter's registrations intact so
// readmission restores exactly the pre-quarantine linkage state.
func TestAuthorizerDenialAfterQuarantineLeavesNoDanglingState(t *testing.T) {
	n := NewNexus()
	dom, err := n.Load(kernelImage())
	if err != nil {
		t.Fatal(err)
	}
	if err := dom.SetAuthorizer(func(req *rtti.Module, _ *Interface) bool {
		return req != evilMod
	}, kernelMod); err != nil {
		t.Fatal(err)
	}

	// Quarantine the exporter, then attempt a re-link from a denied
	// module: the quarantine check fires first, and nothing registers.
	if _, err := n.Quarantine("kernel"); err != nil {
		t.Fatal(err)
	}
	evil := &Image{Name: "evil", Module: evilMod, Imports: []string{"MachineTrap"},
		Exports: []*Interface{NewInterface("EvilIface", evilMod)}}
	if _, err := n.Load(evil); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v, want ErrQuarantined", err)
	}
	if len(n.Domains()) != 1 {
		t.Fatalf("denied load left domains: %v", n.Domains())
	}

	// Readmit and retry: the authorizer now denies it. Again nothing may
	// dangle — the evil image's exports must not be registered.
	if _, err := n.Readmit("kernel"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Load(evil); !errors.Is(err, ErrLinkDenied) {
		t.Fatalf("err = %v, want ErrLinkDenied", err)
	}
	if len(n.Domains()) != 1 {
		t.Fatalf("denied load left domains: %v", n.Domains())
	}
	// The interface name the denied image tried to export is free.
	if _, err := n.Load(&Image{Name: "good", Module: extMod,
		Exports: []*Interface{NewInterface("EvilIface", extMod)}}); err != nil {
		t.Fatalf("interface name dangled after denial: %v", err)
	}
	// And the exporter's own linkage is fully restored post-readmission.
	if _, err := n.Load(&Image{Name: "client", Module: extMod, Imports: []string{"MachineTrap"}}); err != nil {
		t.Fatalf("readmitted exporter not linkable: %v", err)
	}
}

// Domains returns the sorted names of loaded domains.
func (n *Nexus) Domains() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.domains))
	for name := range n.domains {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Symbols returns the sorted symbol names, for diagnostics.
func (i *Interface) Symbols() []string {
	out := make([]string, 0, len(i.symbols))
	for s := range i.symbols {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
