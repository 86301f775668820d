package vm

import (
	"errors"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/rtti"
	"spin/internal/vtime"
)

func newRig(t *testing.T) (*dispatch.Dispatcher, *VM, *vtime.Simulator, *vtime.CPU) {
	t.Helper()
	var clock vtime.Clock
	cpu := vtime.NewCPU(&clock, vtime.AlphaModel())
	sim := vtime.NewSimulator(&clock)
	d := dispatch.New(dispatch.WithCPU(cpu), dispatch.WithSimulator(sim))
	v, err := New(d, cpu)
	if err != nil {
		t.Fatal(err)
	}
	return d, v, sim, cpu
}

var pagerModule = rtti.NewModule("MyPager")

func pagerHandler(fn dispatch.HandlerFn) dispatch.Handler {
	return dispatch.Handler{
		Proc: &rtti.Proc{Name: "MyPager.Fault", Module: pagerModule,
			Sig: rtti.Sig(rtti.Bool, rtti.Word, rtti.Word)},
		Fn: fn,
	}
}

func TestDefaultPagerMapsPages(t *testing.T) {
	_, v, _, _ := newRig(t)
	sp := v.NewSpace()
	if sp.Mapped(0x4000) {
		t.Fatal("fresh space has mapped pages")
	}
	if err := sp.Touch(0x4000); err != nil {
		t.Fatal(err)
	}
	if !sp.Mapped(0x4000) || sp.Faults != 1 || v.DefaultPagerFaults != 1 {
		t.Fatalf("mapped=%v faults=%d default=%d", sp.Mapped(0x4000), sp.Faults, v.DefaultPagerFaults)
	}
	// Second touch hits the mapped page: no fault.
	if err := sp.Touch(0x4001); err != nil {
		t.Fatal(err)
	}
	if sp.Faults != 1 {
		t.Fatalf("faults = %d", sp.Faults)
	}
}

func TestPageGranularity(t *testing.T) {
	_, v, _, _ := newRig(t)
	sp := v.NewSpace()
	_ = sp.Touch(0)
	if !sp.Mapped(PageSize - 1) {
		t.Fatal("same page not mapped")
	}
	if sp.Mapped(PageSize) {
		t.Fatal("next page spuriously mapped")
	}
	if sp.MappedPages() != 1 {
		t.Fatalf("pages = %d", sp.MappedPages())
	}
	sp.Unmap(0)
	if sp.Mapped(0) {
		t.Fatal("unmap failed")
	}
}

func TestCustomPagerWithSegmentGuard(t *testing.T) {
	// §2.1: an extension handling page faults for its data segment
	// guards on the faulting address being inside that segment.
	_, v, _, _ := newRig(t)
	sp := v.NewSpace()
	other := v.NewSpace()
	const lo, hi = 0x10000, 0x20000
	custom := 0
	_, err := v.PageFault.Install(pagerHandler(func(clo any, args []any) any {
		custom++
		if s, ok := v.Space(args[0].(uint64)); ok {
			s.mapPage(args[1].(uint64))
		}
		return true
	}), dispatch.WithGuard(SegmentGuard(sp, lo, hi)))
	if err != nil {
		t.Fatal(err)
	}

	// Fault inside the segment: custom pager handles it, default stays
	// idle (it is a default handler, not a regular one).
	if err := sp.Touch(0x10100); err != nil {
		t.Fatal(err)
	}
	if custom != 1 || v.DefaultPagerFaults != 0 {
		t.Fatalf("custom=%d default=%d", custom, v.DefaultPagerFaults)
	}
	// Fault outside the segment: default pager.
	if err := sp.Touch(0x50000); err != nil {
		t.Fatal(err)
	}
	if custom != 1 || v.DefaultPagerFaults != 1 {
		t.Fatalf("custom=%d default=%d", custom, v.DefaultPagerFaults)
	}
	// Fault in the other space, same range: guard rejects, default pager.
	if err := other.Touch(0x10100); err != nil {
		t.Fatal(err)
	}
	if custom != 1 || v.DefaultPagerFaults != 2 {
		t.Fatalf("custom=%d default=%d", custom, v.DefaultPagerFaults)
	}
}

func TestLogicalOrResultHandler(t *testing.T) {
	// Multiple pagers: one says false, another true — OR yields true.
	_, v, _, _ := newRig(t)
	sp := v.NewSpace()
	_, _ = v.PageFault.Install(pagerHandler(func(any, []any) any { return false }))
	_, _ = v.PageFault.Install(pagerHandler(func(clo any, args []any) any { return true }))
	if err := sp.Touch(0x9000); err != nil {
		t.Fatal(err)
	}
	if !sp.Mapped(0x9000) {
		t.Fatal("authoritative true result did not map the page")
	}
}

func TestInaccessiblePageCrashesApplication(t *testing.T) {
	// All pagers reject (and with a regular handler installed, the
	// default does not run): the VM system crashes the application.
	_, v, _, _ := newRig(t)
	sp := v.NewSpace()
	_, _ = v.PageFault.Install(pagerHandler(func(any, []any) any { return false }))
	err := sp.Touch(0xdead0000)
	if !errors.Is(err, ErrInaccessible) {
		t.Fatalf("err = %v", err)
	}
	if sp.Mapped(0xdead0000) {
		t.Fatal("inaccessible page got mapped")
	}
}

func TestAsyncPageIn(t *testing.T) {
	_, v, sim, _ := newRig(t)
	sp := v.NewSpace()
	if err := sp.RequestPageIn(0x8000); err != nil {
		t.Fatal(err)
	}
	// The raiser proceeded; the page maps once the simulator runs the
	// detached thread.
	if sp.Mapped(0x8000) {
		t.Fatal("page-in completed synchronously")
	}
	sim.Run(0)
	if !sp.Mapped(0x8000) {
		t.Fatal("async page-in never completed")
	}
	if sp.Faults != 0 {
		t.Fatal("page-in counted as a fault")
	}
}

func TestPageFaultChargesEntryCost(t *testing.T) {
	_, v, _, cpu := newRig(t)
	sp := v.NewSpace()
	before := cpu.Now()
	_ = sp.Touch(0x1000)
	us := vtime.InMicros(cpu.Now().Sub(before))
	// PageFaultEntry (8us) + the default pager's mapping work (FSOp,
	// 4us) + dispatch overhead.
	if us < 12 || us > 14 {
		t.Fatalf("fault cost = %.2fus", us)
	}
}

func TestSpaceLookup(t *testing.T) {
	_, v, _, _ := newRig(t)
	sp := v.NewSpace()
	got, ok := v.Space(sp.ID())
	if !ok || got != sp {
		t.Fatal("Space lookup broken")
	}
	if _, ok := v.Space(999); ok {
		t.Fatal("phantom space")
	}
	if sp.RTTIType() != SpaceType {
		t.Fatal("RTTIType wrong")
	}
}

func TestTouchOnForeignSpaceIDFails(t *testing.T) {
	// The default pager returns false for an unknown space id, so the
	// touch fails rather than mapping into nowhere.
	d, v, _, _ := newRig(t)
	_ = d
	ghost := &AddressSpace{id: 424242, vm: v, pages: map[uint64]bool{}}
	if err := ghost.Touch(0x1000); !errors.Is(err, ErrInaccessible) {
		t.Fatalf("err = %v", err)
	}
}

// MappedPages reports the number of mapped pages.
func (s *AddressSpace) MappedPages() int { return len(s.pages) }
