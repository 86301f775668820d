package spin

// Benchmark-regression smoke gate for the specialized inline plan. It is
// opt-in (SPIN_BENCH_SMOKE=1, `make benchsmoke`) because it measures native
// time: absolute ns/op vary wildly across hosts, so the gate compares the
// *ratio* of the inline plan to the single-handler bypass on the same
// machine in the same process — the quantity the specialization work
// optimizes and BENCH_dispatch.json records — and fails if it regresses
// more than 25% past the committed figure.

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"

	"spin/internal/codegen"
	"spin/internal/dispatch"
	"spin/internal/kernel"
	"spin/internal/rtti"
	"spin/internal/scenario"
	"spin/internal/shard"
)

// smokeTrajectory is the subset of the BENCH_dispatch.json schema the gate
// reads: the most recent entry carrying a native.smoke section wins.
type smokeTrajectory struct {
	Entries []struct {
		Date   string `json:"date"`
		Native struct {
			Smoke *struct {
				InlineBypassRatio float64 `json:"inline_bypass_ratio"`
				TolerancePct      float64 `json:"tolerance_pct"`
				// Batch64SingleRatio is a floor, not a midpoint: a
				// 64-frame RaiseBatch1 train on the bypass shape must
				// sustain at least this multiple of single-raise
				// throughput. Tolerance is baked into the figure.
				Batch64SingleRatio float64 `json:"batch64_single_ratio"`
				// RemoteLocalRatio is a ceiling with tolerance baked in: a
				// local bypass raise on a machine with the remote
				// subsystem resident (receiver serving, peer constructed,
				// wire traffic already exchanged) must cost at most this
				// multiple of the same raise on a machine without it.
				RemoteLocalRatio float64 `json:"remote_local_ratio"`
				// ShardRoutedLocalRatio is a ceiling with tolerance baked
				// in: a synchronous bypass raise through a 4-shard
				// router's pinned route must cost at most this multiple
				// of the same raise on a bare dispatcher event.
				ShardRoutedLocalRatio float64 `json:"shard_routed_local_ratio"`
			} `json:"smoke"`
		} `json:"native"`
	} `json:"entries"`
}

// measureSerialNs runs fn through testing.Benchmark and reports ns/op,
// failing the test if any iteration allocates (the smoke gate doubles as an
// allocation tripwire on both shapes).
func measureSerialNs(t *testing.T, label string, ev *dispatch.Event) float64 {
	t.Helper()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ev.Raise1(uint64(7)); err != nil {
				b.Fatal(err)
			}
		}
	})
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("%s: %d allocs/op, want 0", label, allocs)
	}
	return float64(res.T.Nanoseconds()) / float64(res.N)
}

// TestBenchSmokeInlinePlan is the opt-in perf gate: the specialized
// inline-plan raise must stay within the committed inline/bypass ratio
// plus tolerance. Run via `make benchsmoke`.
func TestBenchSmokeInlinePlan(t *testing.T) {
	if os.Getenv("SPIN_BENCH_SMOKE") != "1" {
		t.Skip("benchmark smoke gate is opt-in: set SPIN_BENCH_SMOKE=1 (make benchsmoke)")
	}

	raw, err := os.ReadFile("BENCH_dispatch.json")
	if err != nil {
		t.Fatalf("reading trajectory file: %v", err)
	}
	var traj smokeTrajectory
	if err := json.Unmarshal(raw, &traj); err != nil {
		t.Fatalf("parsing BENCH_dispatch.json: %v", err)
	}
	committed, tolerance := 0.0, 25.0
	for _, e := range traj.Entries {
		if s := e.Native.Smoke; s != nil && s.InlineBypassRatio > 0 {
			committed = s.InlineBypassRatio
			if s.TolerancePct > 0 {
				tolerance = s.TolerancePct
			}
		}
	}
	if committed == 0 {
		t.Fatal("no entry in BENCH_dispatch.json carries native.smoke.inline_bypass_ratio")
	}

	// The bypass shape: one unguarded intrinsic handler, dispatched as a
	// direct call — the floor the specialized plan is measured against.
	sig := rtti.Sig(nil, rtti.Word)
	bd := dispatch.New()
	bypassEv, err := bd.DefineEvent("Smoke.Bypass", sig, dispatch.WithIntrinsic(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Smoke.H", Module: benchMod, Sig: sig},
		Fn:   func(any, []any) any { return nil },
	}))
	if err != nil {
		t.Fatal(err)
	}

	// The inline-plan shape mirrors BenchmarkRaiseParallel/inline-plan:
	// five guarded inline handlers, one word argument, bypass disabled.
	id := dispatch.New(dispatch.WithCodegenOptions(codegen.Options{DisableBypass: true}))
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

	// Warm both paths, then interleave measurements so slow drift (thermal,
	// noisy neighbors) hits both shapes roughly equally.
	measureSerialNs(t, "warmup-bypass", bypassEv)
	measureSerialNs(t, "warmup-inline", inlineEv)
	bestRatio := 0.0
	for trial := 0; trial < 3; trial++ {
		bypassNs := measureSerialNs(t, "bypass", bypassEv)
		inlineNs := measureSerialNs(t, "inline-plan", inlineEv)
		ratio := inlineNs / bypassNs
		t.Logf("trial %d: bypass %.1f ns/op, inline-plan %.1f ns/op, ratio %.2fx", trial, bypassNs, inlineNs, ratio)
		if bestRatio == 0 || ratio < bestRatio {
			bestRatio = ratio
		}
	}

	limit := committed * (1 + tolerance/100)
	if bestRatio > limit {
		t.Errorf("inline-plan/bypass ratio %.2fx exceeds committed %.2fx + %.0f%% tolerance (%.2fx): specialization regressed",
			bestRatio, committed, tolerance, limit)
	}
}

// measureBatchNs reports per-frame ns for 64-frame RaiseBatch1 trains,
// failing the test if any iteration allocates: the batched hot path must
// stay allocation-free just like the single-raise one.
func measureBatchNs(t *testing.T, label string, ev *dispatch.Event) float64 {
	t.Helper()
	const n = 64
	flat := make([]any, n)
	for i := range flat {
		flat[i] = uint64(7)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += n {
			if out := ev.RaiseBatch1(flat); out.Raised != n {
				b.Fatalf("RaiseBatch1: raised %d of %d", out.Raised, n)
			}
		}
	})
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("%s: %d allocs/op, want 0", label, allocs)
	}
	return float64(res.T.Nanoseconds()) / float64(res.N)
}

// TestBenchSmokeBatch is the opt-in perf gate for the batched raise
// ingress: a 64-frame RaiseBatch1 train on the single-handler bypass shape
// must sustain at least the committed multiple of single-raise throughput
// (native.smoke.batch64_single_ratio in BENCH_dispatch.json — a floor with
// tolerance baked in). Run via `make benchsmoke`.
func TestBenchSmokeBatch(t *testing.T) {
	if os.Getenv("SPIN_BENCH_SMOKE") != "1" {
		t.Skip("benchmark smoke gate is opt-in: set SPIN_BENCH_SMOKE=1 (make benchsmoke)")
	}

	raw, err := os.ReadFile("BENCH_dispatch.json")
	if err != nil {
		t.Fatalf("reading trajectory file: %v", err)
	}
	var traj smokeTrajectory
	if err := json.Unmarshal(raw, &traj); err != nil {
		t.Fatalf("parsing BENCH_dispatch.json: %v", err)
	}
	floor := 0.0
	for _, e := range traj.Entries {
		if s := e.Native.Smoke; s != nil && s.Batch64SingleRatio > 0 {
			floor = s.Batch64SingleRatio
		}
	}
	if floor == 0 {
		t.Fatal("no entry in BENCH_dispatch.json carries native.smoke.batch64_single_ratio")
	}

	sig := rtti.Sig(nil, rtti.Word)
	d := dispatch.New()
	ev, err := d.DefineEvent("Smoke.Batch", sig, dispatch.WithIntrinsic(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Smoke.H", Module: benchMod, Sig: sig},
		Fn:   func(any, []any) any { return nil },
	}))
	if err != nil {
		t.Fatal(err)
	}

	// Warm both paths, then interleave measurements so slow drift hits the
	// single and batched measurements roughly equally.
	measureSerialNs(t, "warmup-single", ev)
	measureBatchNs(t, "warmup-batch", ev)
	bestSpeedup := 0.0
	for trial := 0; trial < 3; trial++ {
		singleNs := measureSerialNs(t, "single", ev)
		batchNs := measureBatchNs(t, "batch-64", ev)
		speedup := singleNs / batchNs
		t.Logf("trial %d: single %.1f ns/raise, batch-64 %.1f ns/raise, %.2fx", trial, singleNs, batchNs, speedup)
		if speedup > bestSpeedup {
			bestSpeedup = speedup
		}
	}

	if bestSpeedup < floor {
		t.Errorf("batch-64 speedup %.2fx is below the committed %.2fx floor: batched ingress regressed",
			bestSpeedup, floor)
	}
}

// TestBenchSmokeRemote is the opt-in no-regression gate for the remote
// subsystem's local path: with a receiver serving, a peer constructed, and
// wire traffic already exchanged on the measured machine, a purely local
// bypass raise must cost at most the committed multiple
// (native.smoke.remote_local_ratio, ceiling with tolerance baked in) of
// the same raise on a machine without the remote subsystem. Run via
// `make benchsmoke`.
func TestBenchSmokeRemote(t *testing.T) {
	if os.Getenv("SPIN_BENCH_SMOKE") != "1" {
		t.Skip("benchmark smoke gate is opt-in: set SPIN_BENCH_SMOKE=1 (make benchsmoke)")
	}

	raw, err := os.ReadFile("BENCH_dispatch.json")
	if err != nil {
		t.Fatalf("reading trajectory file: %v", err)
	}
	var traj smokeTrajectory
	if err := json.Unmarshal(raw, &traj); err != nil {
		t.Fatalf("parsing BENCH_dispatch.json: %v", err)
	}
	ceiling := 0.0
	for _, e := range traj.Entries {
		if s := e.Native.Smoke; s != nil && s.RemoteLocalRatio > 0 {
			ceiling = s.RemoteLocalRatio
		}
	}
	if ceiling == 0 {
		t.Fatal("no entry in BENCH_dispatch.json carries native.smoke.remote_local_ratio")
	}

	sig := rtti.Sig(nil, rtti.Word)
	handler := func(name string) dispatch.Handler {
		return dispatch.Handler{
			Proc: &rtti.Proc{Name: name, Module: benchMod, Sig: sig},
			Fn:   func(any, []any) any { return nil },
		}
	}

	// Baseline: a metered machine with no network or remote subsystem.
	base, err := kernel.Boot(kernel.Config{Name: "base", Metered: true})
	if err != nil {
		t.Fatal(err)
	}
	baseEv, err := base.Dispatcher.DefineEvent("Smoke.Plain", sig,
		dispatch.WithIntrinsic(handler("Smoke.H")))
	if err != nil {
		t.Fatal(err)
	}

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
	subjEv, err := rig.A.Dispatcher.DefineEvent("Smoke.Resident", sig,
		dispatch.WithIntrinsic(handler("Smoke.H")))
	if err != nil {
		t.Fatal(err)
	}

	measureSerialNs(t, "warmup-plain", baseEv)
	measureSerialNs(t, "warmup-resident", subjEv)
	bestRatio := 0.0
	for trial := 0; trial < 3; trial++ {
		plainNs := measureSerialNs(t, "plain", baseEv)
		residentNs := measureSerialNs(t, "remote-resident", subjEv)
		ratio := residentNs / plainNs
		t.Logf("trial %d: plain %.1f ns/op, remote-resident %.1f ns/op, ratio %.2fx",
			trial, plainNs, residentNs, ratio)
		if bestRatio == 0 || ratio < bestRatio {
			bestRatio = ratio
		}
	}

	if bestRatio > ceiling {
		t.Errorf("remote-resident/plain local raise ratio %.2fx exceeds committed %.2fx ceiling: remote subsystem taxes the local path",
			bestRatio, ceiling)
	}
}

// TestBenchSmokeShard is the routing-plane tax gate: a synchronous bypass
// raise through a routed handle — 4 shards resident, route pinned at
// definition time — must stay within the committed multiple of the same
// raise on a bare dispatcher event. The routed path adds exactly one
// atomic route load and a nil check; the gate keeps it that way.
func TestBenchSmokeShard(t *testing.T) {
	if os.Getenv("SPIN_BENCH_SMOKE") != "1" {
		t.Skip("benchmark smoke gate is opt-in: set SPIN_BENCH_SMOKE=1 (make benchsmoke)")
	}

	raw, err := os.ReadFile("BENCH_dispatch.json")
	if err != nil {
		t.Fatalf("reading trajectory file: %v", err)
	}
	var traj smokeTrajectory
	if err := json.Unmarshal(raw, &traj); err != nil {
		t.Fatalf("parsing BENCH_dispatch.json: %v", err)
	}
	ceiling := 0.0
	for _, e := range traj.Entries {
		if s := e.Native.Smoke; s != nil && s.ShardRoutedLocalRatio > 0 {
			ceiling = s.ShardRoutedLocalRatio
		}
	}
	if ceiling == 0 {
		t.Fatal("no entry in BENCH_dispatch.json carries native.smoke.shard_routed_local_ratio")
	}

	sig := rtti.Sig(nil, rtti.Word)
	intrinsic := dispatch.WithIntrinsic(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Smoke.H", Module: benchMod, Sig: sig},
		Fn:   func(any, []any) any { return nil },
	})
	r, err := shard.NewRouter(shard.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	routedEv, err := r.DefineEvent("Smoke.Routed", sig, intrinsic)
	if err != nil {
		t.Fatal(err)
	}
	d := dispatch.New()
	plainEv, err := d.DefineEvent("Smoke.Unrouted", sig, intrinsic)
	if err != nil {
		t.Fatal(err)
	}

	measureRouted := func(label string) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := routedEv.Raise1(uint64(7)); err != nil {
					b.Fatal(err)
				}
			}
		})
		if allocs := res.AllocsPerOp(); allocs != 0 {
			t.Fatalf("%s: %d allocs/op, want 0", label, allocs)
		}
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}

	measureRouted("warmup-routed")
	measureSerialNs(t, "warmup-unrouted", plainEv)
	bestRatio := 0.0
	for trial := 0; trial < 3; trial++ {
		plainNs := measureSerialNs(t, "unrouted", plainEv)
		routedNs := measureRouted("routed")
		ratio := routedNs / plainNs
		t.Logf("trial %d: unrouted %.1f ns/op, routed %.1f ns/op, ratio %.2fx",
			trial, plainNs, routedNs, ratio)
		if bestRatio == 0 || ratio < bestRatio {
			bestRatio = ratio
		}
	}

	if bestRatio > ceiling {
		t.Errorf("routed/unrouted bypass raise ratio %.2fx exceeds committed %.2fx ceiling: the routing plane taxes the raise path",
			bestRatio, ceiling)
	}
}
