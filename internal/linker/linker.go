// Package linker simulates SPIN's safe dynamic linker ([Sirer et al. 96],
// paper §2): the first phase of extension incorporation.
//
// Extensions are loaded as images into domains. The linker resolves each
// image's imports against interfaces explicitly exported by already-loaded
// domains, consulting the exporting domain's link authorizer — "when a
// module requests that it be dynamically linked against some other module,
// that module's authorizer is consulted and the linkage is permitted or
// denied. Denial prevents the requester from accessing any of the symbols,
// and hence events, exported by any of the modules governed by the
// authorizer" (§2.5).
//
// After successful resolution the image's initializer runs with access to
// the resolved interfaces; that is where the second phase — handler
// registration with the dispatcher — happens, mirroring the paper's
// two-step incorporation process.
package linker

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"spin/internal/rtti"
)

// Errors returned by the linker.
var (
	ErrUnresolved    = errors.New("linker: unresolved import")
	ErrLinkDenied    = errors.New("linker: linkage denied by authorizer")
	ErrDuplicate     = errors.New("linker: duplicate name")
	ErrNotAuthority  = errors.New("linker: module is not the domain's authority")
	ErrNoSuchSymbol  = errors.New("linker: no such symbol")
	ErrInitFailed    = errors.New("linker: extension initialization failed")
	ErrDomainUnknown = errors.New("linker: unknown domain")
	ErrQuarantined   = errors.New("linker: domain is quarantined")
)

// Interface is a named collection of symbols exported by a module — the
// unit of linkage. Symbols are arbitrary values; in practice they are
// *dispatch.Event handles and procedure values.
type Interface struct {
	Name    string
	Owner   *rtti.Module
	symbols map[string]any
}

// NewInterface builds an interface owned by m.
func NewInterface(name string, m *rtti.Module) *Interface {
	return &Interface{Name: name, Owner: m, symbols: make(map[string]any)}
}

// Define adds a symbol to the interface, replacing any previous value.
func (i *Interface) Define(sym string, v any) *Interface {
	i.symbols[sym] = v
	return i
}

// Lookup resolves a symbol.
func (i *Interface) Lookup(sym string) (any, error) {
	v, ok := i.symbols[sym]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchSymbol, i.Name, sym)
	}
	return v, nil
}

// LinkAuthorizerFn decides whether requestor may link against an interface
// exported by the guarded domain.
type LinkAuthorizerFn func(requestor *rtti.Module, iface *Interface) bool

// Domain is a loaded unit of code: a set of exported interfaces governed by
// one module, with an optional link authorizer.
type Domain struct {
	name       string
	module     *rtti.Module
	exports    map[string]*Interface
	authorizer LinkAuthorizerFn
	// quarantined marks the domain fault-quarantined: its exports stay
	// registered (so readmission is a flag flip, with no dangling or
	// re-registration races) but resolve to ErrQuarantined until the
	// domain is readmitted. Guarded by the Nexus mutex.
	quarantined bool
}

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// Module returns the domain's governing module descriptor.
func (d *Domain) Module() *rtti.Module { return d.module }

// Exports returns the sorted names of exported interfaces.
func (d *Domain) Exports() []string {
	out := make([]string, 0, len(d.exports))
	for n := range d.exports {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetAuthorizer installs a link authorizer on the domain. Authority is
// demonstrated with the domain's module descriptor, exactly as for event
// authorizers.
func (d *Domain) SetAuthorizer(fn LinkAuthorizerFn, proof *rtti.Module) error {
	if proof == nil || proof != d.module {
		return fmt.Errorf("%w: %s over domain %s", ErrNotAuthority, proof.Name(), d.name)
	}
	d.authorizer = fn
	return nil
}

// Image describes an extension object file: the interfaces it exports, the
// interface names it imports, and its initializer. The initializer is the
// extension's module body (the BEGIN ... END block of Figures 2 and 3),
// which runs once linking succeeds and typically installs event handlers.
type Image struct {
	Name    string
	Module  *rtti.Module
	Exports []*Interface
	Imports []string
	Init    func(ctx *Context) error
}

// Context gives an initializer access to its resolved imports.
type Context struct {
	resolved map[string]*Interface
}

// Interface returns a resolved import by name. It panics on a name not
// listed in the image's imports: that is a programming error in the
// extension, caught deterministically.
func (c *Context) Interface(name string) *Interface {
	i, ok := c.resolved[name]
	if !ok {
		panic(fmt.Sprintf("linker: interface %s was not imported", name))
	}
	return i
}

// Nexus is the dynamic linker: the registry of loaded domains and exported
// interfaces.
type Nexus struct {
	mu      sync.Mutex
	domains map[string]*Domain
	ifaces  map[string]*Domain // interface name -> exporting domain
}

// NewNexus creates an empty linker.
func NewNexus() *Nexus {
	return &Nexus{domains: make(map[string]*Domain), ifaces: make(map[string]*Domain)}
}

// Domain returns a loaded domain by name.
func (n *Nexus) Domain(name string) (*Domain, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	d, ok := n.domains[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrDomainUnknown, name)
	}
	return d, nil
}

// Load incorporates an image: resolves imports (consulting authorizers),
// registers the new domain and its exports, and runs the initializer. On
// any failure the system is left unchanged — a denied or unresolvable
// extension does not partially load.
func (n *Nexus) Load(img *Image) (*Domain, error) {
	if img.Module == nil {
		return nil, rtti.ErrNilProc
	}
	n.mu.Lock()
	if _, dup := n.domains[img.Name]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: domain %s", ErrDuplicate, img.Name)
	}

	// Phase 1: resolve all outstanding references against explicitly
	// exported interfaces.
	resolved := make(map[string]*Interface, len(img.Imports))
	for _, want := range img.Imports {
		exporter, ok := n.ifaces[want]
		if !ok {
			n.mu.Unlock()
			return nil, fmt.Errorf("%w: %s (wanted by %s)", ErrUnresolved, want, img.Name)
		}
		if exporter.quarantined {
			// A quarantined domain's interfaces are unavailable for new
			// linkage; existing importers are handled by the dispatcher's
			// binding quarantine, not the linker.
			n.mu.Unlock()
			return nil, fmt.Errorf("%w: %s exports %s", ErrQuarantined, exporter.name, want)
		}
		iface := exporter.exports[want]
		if exporter.authorizer != nil && !exporter.authorizer(img.Module, iface) {
			n.mu.Unlock()
			return nil, fmt.Errorf("%w: %s against %s", ErrLinkDenied, img.Name, want)
		}
		resolved[want] = iface
	}

	// Register the domain and its exports.
	dom := &Domain{name: img.Name, module: img.Module, exports: make(map[string]*Interface)}
	for _, iface := range img.Exports {
		if _, dup := n.ifaces[iface.Name]; dup {
			n.mu.Unlock()
			return nil, fmt.Errorf("%w: interface %s", ErrDuplicate, iface.Name)
		}
	}
	for _, iface := range img.Exports {
		dom.exports[iface.Name] = iface
		n.ifaces[iface.Name] = dom
	}
	n.domains[img.Name] = dom
	n.mu.Unlock()

	// Phase 2: run the extension's initializer (handler registration).
	if img.Init != nil {
		if err := img.Init(&Context{resolved: resolved}); err != nil {
			n.unload(dom)
			return nil, fmt.Errorf("%w: %s: %v", ErrInitFailed, img.Name, err)
		}
	}
	return dom, nil
}

// unload rolls back a failed load.
func (n *Nexus) unload(dom *Domain) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for name := range dom.exports {
		delete(n.ifaces, name)
	}
	delete(n.domains, dom.name)
}

// Quarantine marks a domain fault-quarantined: new linkage against any of
// its exported interfaces is denied with ErrQuarantined until Readmit. The
// domain itself, its registrations, and already-linked importers are left
// intact, so readmission cannot dangle. Reports whether the domain was
// previously healthy.
func (n *Nexus) Quarantine(name string) (bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	dom, ok := n.domains[name]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrDomainUnknown, name)
	}
	was := dom.quarantined
	dom.quarantined = true
	return !was, nil
}

// Readmit lifts a domain quarantine. Reports whether the domain was
// quarantined.
func (n *Nexus) Readmit(name string) (bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	dom, ok := n.domains[name]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrDomainUnknown, name)
	}
	was := dom.quarantined
	dom.quarantined = false
	return was, nil
}

// Quarantined reports whether the named domain is currently quarantined.
func (n *Nexus) Quarantined(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	dom, ok := n.domains[name]
	return ok && dom.quarantined
}
