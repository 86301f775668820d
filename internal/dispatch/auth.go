package dispatch

import (
	"fmt"

	"spin/internal/rtti"
)

// AuthOp identifies the operation an authorizer is asked to approve. The
// dispatcher calls back into the authorization procedure every time the set
// of handlers and guards associated with the event is manipulated (§2.5).
type AuthOp int

const (
	// OpInstall is a handler installation request.
	OpInstall AuthOp = iota
	// OpUninstall is a handler removal request.
	OpUninstall
	// OpSetDefault is a default-handler change request.
	OpSetDefault
	// OpSetResult is a result-handler change request.
	OpSetResult
)

func (op AuthOp) String() string {
	switch op {
	case OpInstall:
		return "install"
	case OpUninstall:
		return "uninstall"
	case OpSetDefault:
		return "set-default"
	case OpSetResult:
		return "set-result"
	}
	return "op(?)"
}

// AuthRequest describes a pending operation to an event's authorizer: the
// operation, context describing the requestor, and the opaque credential
// the requestor passed in (§2.5). While evaluating the request the
// authorizer may impose additional guards on the binding and adjust its
// ordering — the "execution properties" of the paper.
type AuthRequest struct {
	// Event is the event being manipulated.
	Event *Event
	// Op is the requested operation.
	Op AuthOp
	// Binding is the binding being installed or removed (nil for
	// result-handler manipulation and default-handler clears).
	Binding *Binding
	// Requestor is the module offering the handler (the handler
	// procedure's defining module), or nil for anonymous handlers.
	Requestor *rtti.Module
	// Credential is the opaque reference supplied via WithCredential,
	// available to bootstrap richer authorization protocols.
	Credential any
}

// ImposeGuard attaches a guard to the binding under authorization. Imposed
// guards behave exactly like installer guards — they must evaluate true for
// the handler to execute — but only the event's authority controls them
// (§2.5, Figure 3). The guard is typechecked against the event.
func (r *AuthRequest) ImposeGuard(g Guard) error {
	if r.Binding == nil {
		return fmt.Errorf("dispatch: no binding to impose a guard on (%v)", r.Op)
	}
	if err := r.Event.checkGuard(g); err != nil {
		return err
	}
	r.Binding.setImposed(append(r.Binding.imposed, g))
	return nil
}

// SetOrder overrides the binding's ordering constraint, letting an
// authorizer "apply some execution property, such as ordering constraints,
// onto the handler to ensure that previously installed handlers continue
// to operate as expected" (§2.5).
func (r *AuthRequest) SetOrder(o Order) error {
	if r.Binding == nil {
		return fmt.Errorf("dispatch: no binding to order (%v)", r.Op)
	}
	r.Binding.order = o
	return nil
}

// IsEphemeral reports whether the handler under authorization is declared
// EPHEMERAL, letting an authorizer refuse non-terminable handlers (§2.6).
func (r *AuthRequest) IsEphemeral() bool {
	return r.Binding != nil && r.Binding.handler.Proc != nil && r.Binding.handler.Proc.Ephemeral
}

// AuthorizerFn evaluates an authorization request, returning true to allow
// the operation.
type AuthorizerFn func(req *AuthRequest) bool

// InstallAuthorizer registers fn as the event's authorization procedure.
// The caller demonstrates authority by presenting the descriptor of the
// module that defines the event's intrinsic handler — the paper's
// THIS_MODULE() protocol (Figure 3). Without a matching descriptor the
// request fails with ErrNotAuthority.
func (e *Event) InstallAuthorizer(fn AuthorizerFn, proof *rtti.Module) error {
	if err := e.checkAuthority(proof); err != nil {
		return err
	}
	return e.commit(false, func(t *txn) error {
		t.authorizer = fn
		return nil
	})
}

// ImposeGuard lets the event's authority attach a guard to an existing
// binding outside of an authorization callback; imposed guards can be
// added (and removed via RemoveImposedGuards) dynamically (§2.5).
func (e *Event) ImposeGuard(b *Binding, g Guard, proof *rtti.Module) error {
	if err := e.checkAuthority(proof); err != nil {
		return err
	}
	return e.commitOn(b, true, func(t *txn) error {
		if err := e.checkGuard(g); err != nil {
			return err
		}
		b.setImposed(append(b.imposed, g))
		t.changed(b)
		t.stale = true
		return nil
	})
}

// RemoveImposedGuards clears all guards the authority imposed on b.
func (e *Event) RemoveImposedGuards(b *Binding, proof *rtti.Module) error {
	if err := e.checkAuthority(proof); err != nil {
		return err
	}
	return e.commitOn(b, true, func(t *txn) error {
		b.setImposed(nil)
		t.changed(b)
		t.stale = true
		return nil
	})
}

// checkAuthority verifies the presented module descriptor is the event's
// authority. Descriptor identity is pointer identity: a module that keeps
// its descriptor unexported is the only code able to present it.
func (e *Event) checkAuthority(proof *rtti.Module) error {
	if e.authority == nil || proof != e.authority {
		return fmt.Errorf("%w: %s over event %s", ErrNotAuthority, proof.Name(), e.name)
	}
	return nil
}

// authorize submits an operation to the event's authorizer. Events
// without an authorizer allow everything, matching the paper's
// default-open posture within a linked domain (link-time authorization is
// the outer gate; see internal/linker).
func (t *txn) authorize(op AuthOp, b *Binding) error {
	if t.authorizer == nil {
		return nil
	}
	req := &AuthRequest{Event: (*Event)(t), Op: op, Binding: b}
	if b != nil {
		req.Requestor = b.Installer()
		req.Credential = b.credential
	}
	if !t.authorizer(req) {
		return fmt.Errorf("%w: %v on %s", ErrDenied, op, t.name)
	}
	return nil
}
