// Package vm is the virtual memory substrate. It reproduces the paper's
// VM examples: the VM.PageFault event whose boolean results are merged
// with a logical-OR result handler, the trusted default paging service
// installed as the event's default handler (§2.3 "Handling results"), and
// asynchronous page-in requests (§2.6).
//
// Extensions replace or augment paging policy by installing guarded
// handlers on VM.PageFault — the paper's example guards on whether the
// faulting address falls in the extension's data segment, which maps
// directly onto inlinable ArgLt/ArgEq predicates here.
package vm

import (
	"errors"
	"fmt"

	"spin/internal/codegen"
	"spin/internal/dispatch"
	"spin/internal/rtti"
	"spin/internal/vtime"
)

// PageSize is the machine page size (Alpha: 8 KB).
const PageSize = 8192

// Module is the VM module descriptor, authority over the VM events.
var Module = rtti.NewModule("VM", "VM")

// ErrInaccessible reports a fault on a page no handler could supply: "if
// the page is inaccessible, the VM system crashes the application".
var ErrInaccessible = errors.New("vm: page inaccessible")

// VM is the virtual memory service for one machine.
type VM struct {
	cpu *vtime.CPU

	// PageFault is VM.PageFault(space-id, fault-address): BOOLEAN — the
	// result indicates whether the page is now accessible. Multiple
	// pagers' results merge with logical OR.
	PageFault *dispatch.Event
	// PageInRequest is the asynchronous page-in event: raising it
	// returns immediately while a pager maps the page in the background.
	PageInRequest *dispatch.Event

	spaces map[uint64]*AddressSpace
	nextID uint64
	// DefaultPagerFaults counts faults resolved by the trusted default
	// paging service.
	DefaultPagerFaults int64
}

// New defines the VM events on d and installs the default paging service.
func New(d *dispatch.Dispatcher, cpu *vtime.CPU) (*VM, error) {
	v := &VM{cpu: cpu, spaces: make(map[uint64]*AddressSpace)}

	faultSig := rtti.Sig(rtti.Bool, rtti.Word, rtti.Word)
	pf, err := d.DefineEvent("VM.PageFault", faultSig, dispatch.WithOwner(Module))
	if err != nil {
		return nil, err
	}
	v.PageFault = pf

	// The result handler for this event returns the logical-or of all
	// the handler results (§2.3).
	if err := pf.SetResultHandler(func(acc, r any, i int) any {
		a, _ := acc.(bool)
		b, _ := r.(bool)
		return a || b
	}); err != nil {
		return nil, err
	}
	// The default handler relies on a trusted default paging service
	// provided by VM: map a zero page and report the page accessible.
	err = pf.SetDefaultHandler(dispatch.Handler{
		Proc: &rtti.Proc{Name: "VM.DefaultPager", Module: Module, Sig: faultSig},
		Fn: func(closure any, args []any) any {
			space, addr := args[0].(uint64), args[1].(uint64)
			if sp := v.spaces[space]; sp != nil {
				v.cpu.ChargeTo(vtime.AccountKernel, vtime.FSOp)
				sp.mapPage(addr)
				v.DefaultPagerFaults++
				return true
			}
			return false
		},
	})
	if err != nil {
		return nil, err
	}

	inSig := rtti.Sig(nil, rtti.Word, rtti.Word)
	pi, err := d.DefineEvent("VM.PageInRequest", inSig,
		dispatch.AsAsync(),
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "VM.PageInRequest", Module: Module, Sig: inSig},
			Fn: func(closure any, args []any) any {
				space, addr := args[0].(uint64), args[1].(uint64)
				if sp := v.spaces[space]; sp != nil {
					cpu.ChargeTo(vtime.AccountKernel, vtime.PageFaultEntry)
					sp.mapPage(addr)
				}
				return nil
			},
		}))
	if err != nil {
		return nil, err
	}
	v.PageInRequest = pi
	return v, nil
}

// SpaceType is the rtti reference type for address spaces.
var SpaceType = rtti.NewRef("VM.AddressSpace", nil)

// AddressSpace is a per-task virtual address space: a sparse page map.
type AddressSpace struct {
	id    uint64
	vm    *VM
	pages map[uint64]bool
	// Faults counts page faults taken by this space.
	Faults int64
}

// RTTIType implements rtti.Described.
func (s *AddressSpace) RTTIType() rtti.Type { return SpaceType }

// NewSpace creates an address space.
func (v *VM) NewSpace() *AddressSpace {
	v.nextID++
	sp := &AddressSpace{id: v.nextID, vm: v, pages: make(map[uint64]bool)}
	v.spaces[sp.id] = sp
	return sp
}

// Space returns an address space by id.
func (v *VM) Space(id uint64) (*AddressSpace, bool) {
	sp, ok := v.spaces[id]
	return sp, ok
}

// ID returns the space identifier (the first VM.PageFault argument).
func (s *AddressSpace) ID() uint64 { return s.id }

// Mapped reports whether the page containing addr is mapped.
func (s *AddressSpace) Mapped(addr uint64) bool { return s.pages[addr/PageSize] }

func (s *AddressSpace) mapPage(addr uint64) { s.pages[addr/PageSize] = true }

// Unmap removes the page containing addr.
func (s *AddressSpace) Unmap(addr uint64) { delete(s.pages, addr/PageSize) }

// Touch accesses addr. A fault on an unmapped page raises VM.PageFault; if
// the merged handler result is false the access fails with
// ErrInaccessible.
func (s *AddressSpace) Touch(addr uint64) error {
	if s.Mapped(addr) {
		return nil
	}
	s.Faults++
	s.vm.cpu.Charge(vtime.PageFaultEntry)
	res, err := s.vm.PageFault.Raise(s.id, addr)
	if err != nil {
		return err
	}
	if ok, _ := res.(bool); !ok {
		return fmt.Errorf("%w: space %d addr %#x", ErrInaccessible, s.id, addr)
	}
	if !s.Mapped(addr) {
		// A handler claimed accessibility but did not map the page;
		// treat the claim as authoritative and map it now, as the
		// paper's VM trusts its pagers' results.
		s.mapPage(addr)
	}
	return nil
}

// RequestPageIn asynchronously requests that the page containing addr be
// mapped; the caller does not wait (§2.6: "our virtual memory system uses
// asynchronous events for page-in requests").
func (s *AddressSpace) RequestPageIn(addr uint64) error {
	return s.vm.PageInRequest.RaiseAsync(s.id, addr)
}

// SegmentGuard builds an inlinable guard predicate accepting faults whose
// address lies in [lo, hi) for the given space — the paper's "an extension
// that is interested in handling page fault events for its data segment
// can define a guard that checks whether the faulting address is in that
// segment".
func SegmentGuard(space *AddressSpace, lo, hi uint64) dispatch.Guard {
	return dispatch.Guard{Pred: codegen.And(
		codegen.ArgEq(0, space.id),
		codegen.And(
			codegen.Not(codegen.ArgLt(1, lo)),
			codegen.ArgLt(1, hi),
		),
	)}
}
