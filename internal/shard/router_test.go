package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"spin/internal/admit"
	"spin/internal/dispatch"
	"spin/internal/rtti"
)

var testModule = rtti.NewModule("ShardTest", "Test")

func sig1() rtti.Signature { return rtti.Sig(nil, rtti.Word) }

func proc(name string) *rtti.Proc {
	return &rtti.Proc{Name: name, Module: testModule, Sig: sig1()}
}

func rec(name string, log *[]string) dispatch.Handler {
	return dispatch.Handler{Proc: proc(name), Fn: func(any, []any) any {
		*log = append(*log, name)
		return nil
	}}
}

func mustRouter(t *testing.T, n int) *Router {
	t.Helper()
	r, err := NewRouter(Config{Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustDefine(t *testing.T, r *Router, name string, opts ...dispatch.EventOption) *Event {
	t.Helper()
	e, err := r.DefineEvent(name, sig1(), opts...)
	if err != nil {
		t.Fatalf("DefineEvent(%s): %v", name, err)
	}
	return e
}

// TestRouterDefinesOnRingOwner: the handle's pinned shard is the ring's
// assignment, the underlying event lives on that shard's dispatcher and
// nowhere else, and raises through the handle fire handlers installed
// through it.
func TestRouterDefinesOnRingOwner(t *testing.T) {
	r := mustRouter(t, 4)
	var log []string
	seen := make(map[int]int)
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("Route.%03d", i)
		e := mustDefine(t, r, name)
		if got, want := e.Shard().ID(), r.Owner(name); got != want {
			t.Fatalf("%s pinned to shard %d, ring says %d", name, got, want)
		}
		seen[e.Shard().ID()]++
		for id := 0; id < 4; id++ {
			_, ok := r.Shard(id).Dispatcher().Lookup(name)
			if ok != (id == e.Shard().ID()) {
				t.Fatalf("%s present=%v on shard %d, owner %d", name, ok, id, e.Shard().ID())
			}
		}
		if _, err := e.Install(rec(name, &log)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Raise1(uintptr(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(log) != 32 {
		t.Fatalf("fired %d handlers, want 32", len(log))
	}
	if len(seen) < 2 {
		t.Fatalf("32 events all landed on %d shard(s)", len(seen))
	}
	if _, err := r.DefineEvent("Route.000", sig1()); !errors.Is(err, dispatch.ErrDuplicateEvent) {
		t.Fatalf("duplicate define: %v", err)
	}
	if e, ok := r.Lookup("Route.007"); !ok || e.Name() != "Route.007" {
		t.Fatal("Lookup missed a defined event")
	}
	if len(r.Events()) != 32 {
		t.Fatalf("Events() = %d, want 32", len(r.Events()))
	}
}

// TestRouterControlPlanePerEvent: default handlers, result handlers,
// uninstall, and stats work through the routed handle.
func TestRouterControlPlanePerEvent(t *testing.T) {
	r := mustRouter(t, 3)
	e := mustDefine(t, r, "Ctl.A")
	var log []string
	if err := e.SetDefaultHandler(rec("dflt", &log)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise1(uintptr(1)); err != nil {
		t.Fatal(err)
	}
	b, err := e.Install(rec("h1", &log))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise1(uintptr(2)); err != nil {
		t.Fatal(err)
	}
	if !b.Installed() || fmt.Sprint(log) != "[dflt h1]" {
		t.Fatalf("installed=%v log %v", b.Installed(), log)
	}
	if err := e.Uninstall(b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise1(uintptr(3)); err != nil {
		t.Fatal(err)
	}
	want := []string{"dflt", "h1", "dflt"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	if st := e.Stats(); st.Raised != 3 || st.Fired != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRouterAdmissionIdentity: per-shard admission ledgers satisfy the
// conservation law independently, and so does the plane-wide sum — the
// per-shard fault/admission domain invariant `make race` gates on.
func TestRouterAdmissionIdentity(t *testing.T) {
	r := mustRouter(t, 4)
	events := make([]*Event, 12)
	for i := range events {
		e := mustDefine(t, r, fmt.Sprintf("Admit.%02d", i), dispatch.AsAsync())
		if _, err := e.Install(dispatch.Handler{Proc: proc("h"), Fn: func(any, []any) any { return nil }}); err != nil {
			t.Fatal(err)
		}
		e.SetAdmission(&admit.Policy{Mode: admit.Shed, Depth: 4})
		events[i] = e
	}
	for round := 0; round < 50; round++ {
		for _, e := range events {
			err := e.RaiseAsync(uintptr(round))
			if err != nil && !errors.Is(err, admit.ErrOverload) {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := r.Admission(); s.Drained() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("plane never drained: %+v", r.Admission())
		}
		time.Sleep(time.Millisecond)
	}
	total := admit.QueueStats{}
	for i := 0; i < r.Shards(); i++ {
		s := r.Shard(i).Admission()
		if !s.Identity() {
			t.Fatalf("shard %d ledger violates conservation: %+v", i, s)
		}
		total = total.Add(s)
	}
	if !total.Identity() {
		t.Fatalf("plane ledger violates conservation: %+v", total)
	}
	if total.Submitted != 600 {
		t.Fatalf("plane submitted %d, want 600", total.Submitted)
	}
	if plane := r.Admission(); plane != total {
		t.Fatalf("Router.Admission %+v != shard sum %+v", plane, total)
	}
}

// TestShardRoutedBypassRaiseZeroAlloc: the 0-alloc invariant the
// alloccheck gate pins — a synchronous bypass (intrinsic-only) raise
// through the router, with multiple shards resident, allocates nothing.
// The routed handle embeds its dispatcher event, so this is the
// dispatcher's own pooled fast path.
func TestShardRoutedBypassRaiseZeroAlloc(t *testing.T) {
	r := mustRouter(t, 4)
	events := make([]*Event, 8)
	for i := range events {
		events[i] = mustDefine(t, r, fmt.Sprintf("Zero.%02d", i),
			dispatch.WithIntrinsic(dispatch.Handler{
				Proc: proc("intr"),
				Fn:   func(any, []any) any { return nil },
			}))
	}
	for _, e := range events {
		e := e
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, err := e.Raise1(uintptr(7)); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: routed bypass raise allocates %.1f/op, want 0", e.Name(), allocs)
		}
	}
}

// TestShardScalingGate: the acceptance floor for the tentpole — 4 shards
// sustain at least 3x the 1-shard aggregate raise throughput under the
// install/raise churn workload, measured in deterministic virtual time.
func TestShardScalingGate(t *testing.T) {
	pts, err := MeasureScalingSweep([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := pts[1].Speedup; got < 3.0 {
		t.Fatalf("4-shard speedup %.2fx, want >= 3.0x (balance %.2f)", got, pts[1].Balance)
	}
	for _, p := range pts {
		if p.Installs == 0 || p.Raises == 0 || p.Makespan <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
}
