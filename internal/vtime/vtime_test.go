package vtime

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestMicrosRoundTrip(t *testing.T) {
	cases := []float64{0, 0.008, 0.1, 1, 38, 150, 475, 30000}
	for _, us := range cases {
		d := Micros(us)
		if got := InMicros(d); got < us-1e-9 || got > us+1e-9 {
			t.Errorf("InMicros(Micros(%v)) = %v", us, got)
		}
	}
}

func TestMicrosFractional(t *testing.T) {
	if Micros(0.5) != 500*time.Nanosecond {
		t.Errorf("Micros(0.5) = %v, want 500ns", Micros(0.5))
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock reads %v, want 0", c.Now())
	}
	c.Advance(Micros(10))
	if got := c.Now(); got != Time(10*time.Microsecond) {
		t.Fatalf("after Advance(10us) clock reads %v", got)
	}
	c.Advance(0) // zero advance is legal
	if got := c.Now(); got != Time(10*time.Microsecond) {
		t.Fatalf("zero advance moved clock to %v", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	var c Clock
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	c.Advance(-1)
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance(Micros(100))
	was := c.Now()
	if got := c.advanceTo(Time(Micros(50))); got != was {
		t.Fatalf("AdvanceTo(past) moved clock: %v", got)
	}
	if got := c.advanceTo(Time(Micros(200))); got != Time(Micros(200)) {
		t.Fatalf("AdvanceTo(future) = %v", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(Micros(10))
	b := a.Add(Micros(5))
	if b.Sub(a) != Micros(5) {
		t.Fatalf("Sub = %v, want 5us", b.Sub(a))
	}
}

// Property: advancing a clock by any sequence of non-negative durations
// yields a final reading equal to their sum, and Now is monotone.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		var c Clock
		var sum Duration
		last := c.Now()
		for _, s := range steps {
			d := Duration(s) * time.Nanosecond
			sum += d
			c.Advance(d)
			now := c.Now()
			if now < last {
				return false
			}
			last = now
		}
		return c.Now() == Time(sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelCosts(t *testing.T) {
	m := AlphaModel()
	if got := m.Cost(CallDirect); got != Micros(0.10) {
		t.Errorf("CallDirect = %v, want 0.10us", got)
	}
	if got := m.Cost(ThreadSpawnBase); got != Micros(38) {
		t.Errorf("ThreadSpawnBase = %v, want 38us", got)
	}
	var nilModel *Model
	if nilModel.Cost(CallDirect) != 0 {
		t.Error("nil model should cost zero")
	}
}

func TestModelWithCost(t *testing.T) {
	m := AlphaModel()
	m2 := m.WithCost(CallDirect, Micros(1))
	if m2.Cost(CallDirect) != Micros(1) {
		t.Error("WithCost did not override")
	}
	if m.Cost(CallDirect) != Micros(0.10) {
		t.Error("WithCost mutated the original model")
	}
	if m2.Cost(DispatchEntry) != m.Cost(DispatchEntry) {
		t.Error("WithCost dropped other costs")
	}
}

// The calibration must reproduce Table 1's no-inline slope: cost of one
// indirect guard+handler pair is ~0.231us.
func TestCalibrationTable1Slope(t *testing.T) {
	m := AlphaModel()
	pair := m.Cost(GuardIndirect) + m.Cost(HandlerIndirect)
	if us := InMicros(pair); us < 0.22 || us > 0.24 {
		t.Errorf("indirect binding pair = %.3fus, want ~0.231", us)
	}
	inl := m.Cost(GuardInline) + m.Cost(HandlerInline)
	if us := InMicros(inl); us < 0.04 || us > 0.05 {
		t.Errorf("inline binding pair = %.3fus, want ~0.046", us)
	}
}

// The calibration must reproduce the installation overhead narrative:
// one install ~150us, 100 installs on one event ~30ms total.
func TestCalibrationInstallOverhead(t *testing.T) {
	m := AlphaModel()
	var total Duration
	for n := 0; n < 100; n++ {
		total += m.Cost(PlanCompileBase) + m.Cost(PlanCompileBinding)*Duration(n)
	}
	ms := float64(total) / 1e6
	if ms < 25 || ms > 35 {
		t.Errorf("100 installs cost %.1fms, want ~30ms", ms)
	}
	one := InMicros(m.Cost(PlanCompileBase))
	if one < 140 || one > 160 {
		t.Errorf("single install = %.0fus, want ~150us", one)
	}
}

// Asynchronous raise overhead must fall in the paper's 38-90us band for
// 0..5 arguments.
func TestCalibrationAsyncRange(t *testing.T) {
	m := AlphaModel()
	for args := 0; args <= 5; args++ {
		d := m.Cost(ThreadSpawnBase) + m.Cost(ThreadSpawnArg)*Duration(args)
		us := InMicros(d)
		if us < 38-1e-9 || us > 90+1e-9 {
			t.Errorf("async overhead with %d args = %.1fus, outside [38,90]", args, us)
		}
	}
}

func TestCPUChargeAndAccounts(t *testing.T) {
	var clock Clock
	cpu := NewCPU(&clock, AlphaModel())
	cpu.Charge(CallDirect)
	if got := clock.Now(); got != Time(Micros(0.10)) {
		t.Fatalf("clock after CallDirect = %v", got)
	}
	cpu.Begin(AccountEvents)
	cpu.ChargeN(GuardIndirect, 10)
	cpu.End()
	if got := cpu.Total(AccountEvents); got != Micros(0.115)*10 {
		t.Fatalf("events account = %v", got)
	}
	if got := cpu.Total(AccountKernel); got != Micros(0.10) {
		t.Fatalf("kernel account = %v", got)
	}
}

func TestCPUNestedAccounts(t *testing.T) {
	var clock Clock
	cpu := NewCPU(&clock, AlphaModel())
	cpu.Begin(AccountUser)
	cpu.Charge(CallDirect)
	cpu.Begin(AccountEvents)
	cpu.Charge(CallDirect)
	cpu.End()
	cpu.Charge(CallDirect)
	cpu.End()
	if got := cpu.Total(AccountUser); got != 2*Micros(0.10) {
		t.Fatalf("user = %v", got)
	}
	if got := cpu.Total(AccountEvents); got != Micros(0.10) {
		t.Fatalf("events = %v", got)
	}
}

func TestCPUUnbalancedEndPanics(t *testing.T) {
	cpu := NewCPU(&Clock{}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced End did not panic")
		}
	}()
	cpu.End()
}

func TestNilCPUIsSafe(t *testing.T) {
	var cpu *CPU
	cpu.Charge(CallDirect)
	cpu.ChargeN(GuardInline, 5)
	cpu.spend(Micros(1))
	cpu.Begin(AccountUser)
	cpu.End()
	cpu.Idle(Micros(1))
	if cpu.Now() != 0 || cpu.Total(AccountUser) != 0 {
		t.Fatal("nil CPU must be inert")
	}
	if cpu.Clock() != nil || cpu.Model() != nil {
		t.Fatal("nil CPU accessors must return nil")
	}
	_ = cpu.Breakdown()
}

func TestBreakdownString(t *testing.T) {
	var clock Clock
	cpu := NewCPU(&clock, AlphaModel())
	cpu.Begin(AccountUser)
	cpu.spend(Micros(100))
	cpu.End()
	cpu.Idle(Micros(300))
	b := cpu.Breakdown()
	if b.Sum() != Micros(400) {
		t.Fatalf("sum = %v", b.Sum())
	}
	if b.Of(AccountIdle) != Micros(300) {
		t.Fatalf("idle = %v", b.Of(AccountIdle))
	}
	s := b.String()
	if s == "" {
		t.Fatal("empty breakdown string")
	}
}

func TestSimulatorOrdering(t *testing.T) {
	var clock Clock
	sim := NewSimulator(&clock)
	var order []int
	sim.After(Micros(30), func() { order = append(order, 3) })
	sim.After(Micros(10), func() { order = append(order, 1) })
	sim.After(Micros(20), func() { order = append(order, 2) })
	sim.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if clock.Now() != Time(Micros(30)) {
		t.Fatalf("clock = %v", clock.Now())
	}
}

func TestSimulatorFIFOAtSameInstant(t *testing.T) {
	var clock Clock
	sim := NewSimulator(&clock)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		sim.At(Time(Micros(5)), func() { order = append(order, i) })
	}
	sim.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of order: %v", order)
		}
	}
}

func TestSimulatorNestedScheduling(t *testing.T) {
	var clock Clock
	sim := NewSimulator(&clock)
	hits := 0
	sim.After(Micros(1), func() {
		hits++
		sim.After(Micros(1), func() { hits++ })
	})
	sim.Run(0)
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
	if clock.Now() != Time(Micros(2)) {
		t.Fatalf("clock = %v", clock.Now())
	}
}

func TestSimulatorPastSchedulePanics(t *testing.T) {
	var clock Clock
	clock.Advance(Micros(10))
	sim := NewSimulator(&clock)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	sim.At(Time(Micros(5)), func() {})
}

func TestSimulatorRunLimit(t *testing.T) {
	var clock Clock
	sim := NewSimulator(&clock)
	var reschedule func()
	reschedule = func() { sim.After(Micros(1), reschedule) }
	sim.After(Micros(1), reschedule)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation did not hit the step limit")
		}
	}()
	sim.Run(100)
}

func TestSimulatorIdleAccounting(t *testing.T) {
	var clock Clock
	cpu := NewCPU(&clock, AlphaModel())
	sim := NewSimulator(&clock)
	sim.AccountIdleTo(cpu)
	sim.After(Micros(100), func() {})
	sim.Run(0)
	if got := cpu.Total(AccountIdle); got != Micros(100) {
		t.Fatalf("idle = %v, want 100us", got)
	}
}

func TestSimulatorRunUntil(t *testing.T) {
	var clock Clock
	sim := NewSimulator(&clock)
	ran := 0
	sim.After(Micros(10), func() { ran++ })
	sim.After(Micros(50), func() { ran++ })
	n := sim.RunUntil(Time(Micros(20)))
	if n != 1 || ran != 1 {
		t.Fatalf("RunUntil ran %d events (%d callbacks)", n, ran)
	}
	if sim.Pending() != 1 {
		t.Fatalf("pending = %d", sim.Pending())
	}
	if clock.Now() != Time(Micros(20)) {
		t.Fatalf("clock should land on the deadline, got %v", clock.Now())
	}
	sim.Run(0)
	if ran != 2 {
		t.Fatalf("remaining event did not run")
	}
}

// Property: however events are scheduled, the simulator runs them in
// non-decreasing time order.
func TestSimulatorOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		var clock Clock
		sim := NewSimulator(&clock)
		var seen []Time
		for _, d := range delays {
			sim.After(Duration(d)*time.Nanosecond, func() {
				seen = append(seen, clock.Now())
			})
		}
		sim.Run(0)
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// WithCost returns a copy of m with the cost of k replaced; used by
// ablation benchmarks to perturb a single constant.
func (m *Model) WithCost(k Kind, d Duration) *Model {
	var out Model
	if m != nil {
		out = *m
	}
	out.costs[k] = d
	return &out
}
