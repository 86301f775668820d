package bench

import (
	"testing"

	"spin/internal/vtime"
)

// near asserts a measured microsecond value lies within tolPct of the
// paper's value.
func near(t *testing.T, what string, got, paper, tolPct float64) {
	t.Helper()
	lo := paper * (1 - tolPct/100)
	hi := paper * (1 + tolPct/100)
	if got < lo || got > hi {
		t.Errorf("%s = %.3fus, paper %.2fus (+-%.0f%%)", what, got, paper, tolPct)
	}
}

// TestTable1MatchesPaper pins the full Table 1 grid against the paper's
// values within 20% (the paper's own cells carry measurement noise; e.g.
// the 5-arg inline column is non-monotone between 5 and 10 handlers).
func TestTable1MatchesPaper(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	paperProc := map[int]float64{0: 0.10, 1: 0.13, 5: 0.14}
	paperNoInline := map[[2]int]float64{
		{0, 1}: 0.37, {0, 5}: 1.18, {0, 10}: 2.15, {0, 50}: 11.69,
		{1, 1}: 0.39, {1, 5}: 1.25, {1, 10}: 2.32, {1, 50}: 11.51,
		{5, 1}: 0.97, {5, 5}: 1.61, {5, 10}: 2.88, {5, 50}: 14.45,
	}
	paperInline := map[[2]int]float64{
		{0, 1}: 0.23, {0, 5}: 0.41, {0, 10}: 0.63, {0, 50}: 2.48,
		{1, 1}: 0.24, {1, 5}: 0.45, {1, 10}: 0.72, {1, 50}: 2.87,
		{5, 1}: 0.42, {5, 10}: 1.32, {5, 50}: 5.65,
		// {5,5} is 1.55 in the paper, an outlier above its own 10-handler
		// cell; the model cannot (and should not) reproduce noise.
	}
	// The model is the linear fit to each row; two of the paper's cells
	// sit well off their own row's linear trend ({1,1} against the 1-arg
	// slope, {5,5} against the 5-arg intercept+slope), so they carry a
	// wider band.
	wideTol := map[[2]int]bool{{1, 1}: true, {5, 5}: true}
	for a, want := range paperProc {
		near(t, "proc call", r.ProcCall[a], want, 30)
	}
	for k, want := range paperNoInline {
		tol := 20.0
		if wideTol[k] {
			tol = 35
		}
		near(t, "no-inline", r.NoInline[k], want, tol)
	}
	for k, want := range paperInline {
		near(t, "inline", r.Inline[k], want, 20)
	}
}

// TestTable1Shape verifies the structural claims independent of absolute
// calibration: linear growth with handler count, inline beating no-inline,
// and the intrinsic case sitting at procedure-call cost.
func TestTable1Shape(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.Args {
		// Monotone in handlers, and roughly linear: cost(50)/cost(10)
		// should be close to the handler ratio for the no-inline case.
		if r.NoInline[[2]int{a, 50}] <= r.NoInline[[2]int{a, 10}] {
			t.Errorf("args=%d: no-inline not monotone", a)
		}
		for _, h := range r.Handlers {
			ni := r.NoInline[[2]int{a, h}]
			inl := r.Inline[[2]int{a, h}]
			if inl >= ni {
				t.Errorf("args=%d handlers=%d: inline (%.2f) not cheaper than no-inline (%.2f)",
					a, h, inl, ni)
			}
			if r.ProcCall[a] >= ni {
				t.Errorf("args=%d: procedure call costlier than dispatch", a)
			}
		}
		// Slope check: per-handler increment ~ (cost(50)-cost(1))/49
		// must be within a factor of the model's indirect pair cost.
		slope := (r.NoInline[[2]int{a, 50}] - r.NoInline[[2]int{a, 1}]) / 49
		if slope < 0.15 || slope > 0.35 {
			t.Errorf("args=%d: no-inline slope %.3fus/handler, want ~0.23", a, slope)
		}
	}
}

func TestInstallOverheadMatchesPaper(t *testing.T) {
	first, total, err := InstallOverhead(100)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~150us for one install, ~30ms for 100 on the same event.
	near(t, "first install", vtime.InMicros(first), 150, 15)
	near(t, "100 installs", vtime.InMicros(total)/1000, 30, 15) // ms
	// Quadratic growth: 100 installs cost much more than 100x the first.
	if total < 150*first/2 {
		t.Errorf("install cost not superlinear: first=%v total=%v", first, total)
	}
}

func TestAsyncOverheadMatchesPaper(t *testing.T) {
	// Paper: 38-90us additional latency per asynchronous raise.
	for _, args := range []int{0, 1, 5} {
		d, err := AsyncOverhead(args)
		if err != nil {
			t.Fatal(err)
		}
		us := vtime.InMicros(d)
		if us < 38 || us > 90 {
			t.Errorf("async overhead args=%d: %.1fus outside [38,90]", args, us)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	paper := map[int]float64{1: 475, 5: 481, 10: 487, 50: 530}
	var base float64
	for _, guards := range []int{1, 5, 10, 50} {
		rt, err := Table2Roundtrip(guards)
		if err != nil {
			t.Fatal(err)
		}
		us := vtime.InMicros(rt)
		near(t, "udp roundtrip", us, paper[guards], 12)
		if guards == 1 {
			base = us
		} else if us <= base {
			t.Errorf("roundtrip with %d guards (%.0fus) not above the 1-guard base (%.0fus)",
				guards, us, base)
		}
	}
}

func TestTable2Slope(t *testing.T) {
	// Each additional guard adds ~1.12us to the roundtrip.
	rt1, err := Table2Roundtrip(1)
	if err != nil {
		t.Fatal(err)
	}
	rt50, err := Table2Roundtrip(50)
	if err != nil {
		t.Fatal(err)
	}
	slope := (vtime.InMicros(rt50) - vtime.InMicros(rt1)) / 49
	if slope < 0.8 || slope > 1.5 {
		t.Errorf("per-guard slope = %.2fus, paper ~1.12us", slope)
	}
}

func TestMicroOverheadBand(t *testing.T) {
	m, err := Micro()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "event processing overhead ... on the order of 10-15% for
	// operations such as system call and thread management."
	if pct := m.SyscallOverheadPct(); pct < 5 || pct > 25 {
		t.Errorf("syscall overhead = %.1f%%, paper 10-15%%", pct)
	}
	if pct := m.ThreadOverheadPct(); pct < 5 || pct > 25 {
		t.Errorf("thread overhead = %.1f%%, paper 10-15%%", pct)
	}
	t.Logf("syscall: %.1f%% (direct %v evented %v), thread: %.1f%%",
		m.SyscallOverheadPct(), m.SyscallDirect, m.SyscallEvented, m.ThreadOverheadPct())
}

// TestAblationBypass quantifies design decision 1 from DESIGN.md: without
// the single-handler bypass, the intrinsic-only case pays dispatch-entry
// cost instead of a bare procedure call.
func TestAblationBypass(t *testing.T) {
	with, err := procCallLatency(0)
	if err != nil {
		t.Fatal(err)
	}
	without, err := dispatchLatency(0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if without <= with {
		t.Errorf("bypass ablation: dispatch (%v) should cost more than direct call (%v)", without, with)
	}
	ratio := float64(without) / float64(with)
	if ratio < 2 {
		t.Errorf("bypass saves less than 2x (%.1fx); Table 1 implies ~3.7x", ratio)
	}
}

// TestAblationInline quantifies design decision 2: disabling inlining on
// an inlinable population falls back to indirect-call cost.
func TestAblationInline(t *testing.T) {
	inline, err := dispatchLatency(0, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	noInline, err := dispatchLatency(0, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(noInline) / float64(inline)
	// Paper: 11.69 vs 2.48 at 50 handlers ~ 4.7x.
	if ratio < 3 || ratio > 7 {
		t.Errorf("inline advantage = %.1fx, paper ~4.7x", ratio)
	}
}

// TestTable2DecisionTreeFlattensSlope verifies the paper's future-work
// prediction: with the guard decision tree (and inline port guards), the
// per-guard cost of Table 2's experiment disappears — roundtrip latency is
// essentially flat from 1 to 50 endpoints.
func TestTable2DecisionTreeFlattensSlope(t *testing.T) {
	rt1, err := Table2RoundtripOptimized(1)
	if err != nil {
		t.Fatal(err)
	}
	rt50, err := Table2RoundtripOptimized(50)
	if err != nil {
		t.Fatal(err)
	}
	slope := (vtime.InMicros(rt50) - vtime.InMicros(rt1)) / 49
	if slope > 0.05 {
		t.Errorf("optimized per-guard slope = %.3fus, want ~0 (linear scan: ~1.12)", slope)
	}
	// And the optimized 50-guard case beats the unoptimized one by
	// roughly the 49 * 1.12us the guards used to cost.
	lin50, err := Table2Roundtrip(50)
	if err != nil {
		t.Fatal(err)
	}
	saved := vtime.InMicros(lin50) - vtime.InMicros(rt50)
	if saved < 30 {
		t.Errorf("decision tree saved only %.1fus at 50 guards, want ~50", saved)
	}
	t.Logf("optimized: 1 guard %.1fus, 50 guards %.1fus (linear 50: %.1fus)",
		vtime.InMicros(rt1), vtime.InMicros(rt50), vtime.InMicros(lin50))
}
