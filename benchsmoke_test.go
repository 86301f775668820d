package spin

// Benchmark-regression smoke gates. They are opt-in (SPIN_BENCH_SMOKE=1,
// `make benchsmoke`) because they measure native time: absolute ns/op vary
// wildly across hosts, so each gate compares the *ratio* of two shapes
// measured on the same machine in the same process against a committed
// figure. The figures were recorded on a 1-core host when each gate
// landed; their history is in CHANGES.md.

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"spin/internal/codegen"
	"spin/internal/dispatch"
	"spin/internal/kernel"
	"spin/internal/rtti"
	"spin/internal/scenario"
)

const (
	// inlineBypassRatio is the serial inline-plan/bypass ratio; the gate
	// fails more than inlineBypassTolerancePct above it.
	inlineBypassRatio        = 1.72
	inlineBypassTolerancePct = 25.0
	// batch64Floor is a floor with tolerance baked in: a 64-frame
	// RaiseBatch1 train on the bypass shape must sustain at least this
	// multiple of single-raise throughput (measured 5.39x when committed).
	batch64Floor = 3.0
	// remoteCeiling is a ceiling with tolerance baked in: a local bypass
	// raise on a machine with the remote subsystem resident must cost at
	// most this multiple of the same raise on a machine without it.
	remoteCeiling = 1.25
	// filterCeiling is a ceiling with tolerance baked in: a filter ahead of
	// two handlers, raised through Raise1, must cost at most this multiple
	// of the same plan with the filter installed as a plain handler
	// (measured 0.94-1.08x when committed, 1.36-1.65x with the filter on the
	// observed walk; 2-vCPU Xeon).
	filterCeiling = 1.30
	// installScalingCeiling is a ceiling with tolerance baked in: 256
	// appends onto a fresh event must take at most this multiple of 8
	// times 32 such appends, for each guard population of installKinds. A
	// cost linear in the residents per install reads 8; appends that are
	// O(1) in the residents read below 1, the event's own set-up spread
	// over more appends (best of three 0.89x ArgEq and 0.84x call guards
	// when committed; 2.34x and 1.43x with the guard index copied and the
	// binding list rebuilt per append; 2-vCPU Xeon).
	installScalingCeiling = 1.2
)

func requireSmoke(t *testing.T) {
	t.Helper()
	if os.Getenv("SPIN_BENCH_SMOKE") != "1" {
		t.Skip("benchmark smoke gate is opt-in: set SPIN_BENCH_SMOKE=1 (make benchsmoke)")
	}
}

// raise1 is the call most gates measure: one synchronous raise of a word.
func raise1(raise func(any) (any, error)) func() error {
	return func() error { _, err := raise(uint64(7)); return err }
}

// measureNs runs raise through testing.Benchmark and reports ns per call,
// failing the test if a call allocates: every gate doubles as an
// allocation tripwire on the shapes it measures.
func measureNs(t *testing.T, label string, raise func() error) float64 {
	t.Helper()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := raise(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("%s: %d allocs/op, want 0", label, allocs)
	}
	return float64(res.T.Nanoseconds()) / float64(res.N)
}

// bestRatio warms both calls, then measures them interleaved three times,
// so slow drift (thermal, noisy neighbours) hits both alike, and returns
// the smallest subject/base ratio of ns per call.
func bestRatio(t *testing.T, baseLabel string, base func() error, subjLabel string, subj func() error) float64 {
	t.Helper()
	measureNs(t, "warmup-"+baseLabel, base)
	measureNs(t, "warmup-"+subjLabel, subj)
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		baseNs := measureNs(t, baseLabel, base)
		subjNs := measureNs(t, subjLabel, subj)
		ratio := subjNs / baseNs
		t.Logf("trial %d: %s %.1f ns/op, %s %.1f ns/op, ratio %.2fx", trial, baseLabel, baseNs, subjLabel, subjNs, ratio)
		if best == 0 || ratio < best {
			best = ratio
		}
	}
	return best
}

// bypassEvent defines name on d with one unguarded intrinsic handler, the
// shape dispatched as a direct call.
func bypassEvent(t *testing.T, d *dispatch.Dispatcher, name string) *dispatch.Event {
	t.Helper()
	sig := rtti.Sig(nil, rtti.Word)
	ev, err := d.DefineEvent(name, sig, dispatch.WithIntrinsic(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Smoke.H", Module: benchMod, Sig: sig},
		Fn:   func(any, []any) any { return nil },
	}))
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestBenchSmokeInlinePlan: the specialized inline-plan raise must stay
// within the committed inline/bypass ratio plus tolerance.
func TestBenchSmokeInlinePlan(t *testing.T) {
	requireSmoke(t)
	bypassEv := bypassEvent(t, dispatch.New(), "Smoke.Bypass")

	// The inline-plan shape mirrors BenchmarkRaiseParallel/inline-plan:
	// five guarded inline handlers, one word argument.
	sig := rtti.Sig(nil, rtti.Word)
	id := dispatch.New()
	inlineEv, err := id.DefineEvent("Smoke.Inline", sig)
	if err != nil {
		t.Fatal(err)
	}
	var cell atomic.Uint64
	for i := 0; i < 5; i++ {
		if _, err := inlineEv.Install(dispatch.Handler{
			Proc:   &rtti.Proc{Name: "Smoke.H", Module: benchMod, Sig: sig},
			Inline: codegen.Nop(),
		}, dispatch.WithGuard(dispatch.Guard{Pred: codegen.GlobalEq(&cell, 0)})); err != nil {
			t.Fatal(err)
		}
	}

	ratio := bestRatio(t, "bypass", raise1(bypassEv.Raise1), "inline-plan", raise1(inlineEv.Raise1))
	if limit := inlineBypassRatio * (1 + inlineBypassTolerancePct/100); ratio > limit {
		t.Errorf("inline-plan/bypass ratio %.2fx exceeds committed %.2fx + %.0f%% tolerance (%.2fx): specialization regressed",
			ratio, inlineBypassRatio, inlineBypassTolerancePct, limit)
	}
}

// TestBenchSmokeBatch: a 64-frame RaiseBatch1 train on the bypass shape
// must sustain at least batch64Floor times single-raise throughput.
func TestBenchSmokeBatch(t *testing.T) {
	requireSmoke(t)
	ev := bypassEvent(t, dispatch.New(), "Smoke.Batch")
	const n = 64
	flat := make([]any, n)
	for i := range flat {
		flat[i] = uint64(7)
	}
	batch := func() error {
		if out := ev.RaiseBatch1(flat); out.Raised != n {
			return fmt.Errorf("RaiseBatch1: raised %d of %d", out.Raised, n)
		}
		return nil
	}

	// The ratio is one train over one single raise; the train carries n.
	speedup := n / bestRatio(t, "single", raise1(ev.Raise1), "batch-64-train", batch)
	if speedup < batch64Floor {
		t.Errorf("batch-64 speedup %.2fx is below the committed %.2fx floor: batched ingress regressed",
			speedup, batch64Floor)
	}
}

// TestBenchSmokeRemote: with a receiver serving, a peer constructed, and
// wire traffic already exchanged on the measured machine, a purely local
// bypass raise must cost at most remoteCeiling times the same raise on a
// machine without the remote subsystem.
func TestBenchSmokeRemote(t *testing.T) {
	requireSmoke(t)

	// Baseline: a metered machine with no network or remote subsystem.
	base, err := kernel.Boot(kernel.Config{Name: "base", Metered: true})
	if err != nil {
		t.Fatal(err)
	}
	baseEv := bypassEvent(t, base.Dispatcher, "Smoke.Plain")

	// Subject: the two-machine drill rig, warmed with real wire traffic so
	// the remote subsystem is resident and live, then measured on a local
	// event that never touches it.
	rig, err := scenario.NewRemoteRig()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.WarmPeer(); err != nil {
		t.Fatal(err)
	}
	subjEv := bypassEvent(t, rig.A.Dispatcher, "Smoke.Resident")

	if ratio := bestRatio(t, "plain", raise1(baseEv.Raise1), "remote-resident", raise1(subjEv.Raise1)); ratio > remoteCeiling {
		t.Errorf("remote-resident/plain local raise ratio %.2fx exceeds committed %.2fx ceiling: remote subsystem taxes the local path",
			ratio, remoteCeiling)
	}
}

// TestBenchSmokeFilter is the filter tax gate: a rewriting filter ahead of
// two handlers must cost at most filterCeiling times the same three bodies
// with the filter installed as a plain handler, both through Raise1. The
// filter runs on the plain stencil, at a segment boundary; a filter plan
// sent back to the observed walk fails it.
func TestBenchSmokeFilter(t *testing.T) {
	requireSmoke(t)
	sig := rtti.Sig(nil, rtti.Word)
	event := func(name string, filter bool) *dispatch.Event {
		ev, err := dispatch.New().DefineEvent(name, sig)
		if err != nil {
			t.Fatal(err)
		}
		opts := []dispatch.InstallOption{dispatch.First()}
		if filter {
			opts = append(opts, dispatch.AsFilter())
		}
		if _, err := ev.Install(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Smoke.F", Module: benchMod,
				Sig: rtti.Signature{Args: sig.Args, ByRef: []bool{true}}},
			Fn: func(_ any, args []any) any { args[0] = args[0].(uint64) + 1; return nil },
		}, opts...); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := ev.Install(dispatch.Handler{
				Proc: &rtti.Proc{Name: "Smoke.H", Module: benchMod, Sig: sig},
				Fn:   func(any, []any) any { return nil },
			}); err != nil {
				t.Fatal(err)
			}
		}
		return ev
	}
	plainEv, filterEv := event("Smoke.Unfiltered", false), event("Smoke.Filtered", true)
	if got, want := filterEv.Plan().Executor(false), plainEv.Plan().Executor(false); got != want {
		t.Fatalf("filter plan runs %s, the unfiltered one %s", got, want)
	}

	if ratio := bestRatio(t, "unfiltered", raise1(plainEv.Raise1), "filtered", raise1(filterEv.Raise1)); ratio > filterCeiling {
		t.Errorf("filtered/unfiltered raise ratio %.2fx exceeds committed %.2fx ceiling: filters left the plain stencil",
			ratio, filterCeiling)
	}
}

// TestBenchSmokeInstallScaling is the incremental-installation gate: for
// each guard population of installKinds, the time of 256 appends onto a
// fresh event, over 8 times that of 32, stays under installScalingCeiling.
// Each append compiles its plan from the published one, lowering only the
// new binding and appending its step — and, for the indexed population,
// its guard-index entry — in place; a change that brings back a pass over
// the residents per install (a full regeneration, a copy of the index, a
// rebuild of the binding list) fails it.
func TestBenchSmokeInstallScaling(t *testing.T) {
	requireSmoke(t)
	for _, kind := range installKinds {
		appends := func(b *testing.B, n int) {
			for i := 0; i < b.N; i++ {
				ev, err := dispatch.New().DefineEvent("Smoke.Install", benchSig(1))
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < n; k++ {
					if _, err := ev.Install(appendHandler, dispatch.WithGuard(kind.guard(k))); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		measure := func(n int) float64 {
			res := testing.Benchmark(func(b *testing.B) { appends(b, n) })
			return float64(res.T.Nanoseconds()) / float64(res.N)
		}
		measure(32) // warm up
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			small, large := measure(32), measure(256)
			ratio := large / (8 * small)
			t.Logf("%s trial %d: 32 appends %.1f us, 256 appends %.1f us, ratio %.2fx", kind.name, trial, small/1e3, large/1e3, ratio)
			if best == 0 || ratio < best {
				best = ratio
			}
		}
		if best > installScalingCeiling {
			t.Errorf("%s: 256/(8x32) append ratio %.2fx exceeds committed %.2fx ceiling: installs pay for the residents again",
				kind.name, best, installScalingCeiling)
		}
	}
}
