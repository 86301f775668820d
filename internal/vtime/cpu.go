package vtime

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Account labels a category of CPU time for end-to-end breakdowns, matching
// the categories the paper reports for the document-preview workload
// (§3.2): idle, X11 server, kernel, and — within kernel time — event
// raising and dispatching.
type Account int

const (
	// AccountIdle is time spent with no runnable strand.
	AccountIdle Account = iota
	// AccountUser is time executing application (X11 server) code.
	AccountUser
	// AccountKernel is time executing kernel and extension code other
	// than the event dispatcher itself.
	AccountKernel
	// AccountEvents is time spent raising and dispatching events: the
	// dispatcher entry/exit, guard evaluation, handler call overhead and
	// plan bookkeeping, but not the useful work done inside handlers.
	AccountEvents
	numAccounts
)

var accountNames = [numAccounts]string{"idle", "user", "kernel", "events"}

func (a Account) String() string {
	if a >= 0 && int(a) < len(accountNames) {
		return accountNames[a]
	}
	return "account(?)"
}

// CPU meters virtual execution time against a cost model. Costs are charged
// to the clock and attributed to the currently active account. A nil *CPU
// is valid everywhere a meter is accepted and charges nothing, so code paths
// shared between metered simulation and native benchmarking pay only a nil
// check when unmetered.
type CPU struct {
	clock *Clock
	model *Model

	mu      sync.Mutex
	current Account
	stack   []Account
	totals  [numAccounts]Duration
}

// NewCPU creates a meter over clock and model. The initial account is
// AccountKernel.
func NewCPU(clock *Clock, model *Model) *CPU {
	return &CPU{clock: clock, model: model, current: AccountKernel}
}

// Clock returns the underlying virtual clock, or nil for a nil CPU.
func (c *CPU) Clock() *Clock {
	if c == nil {
		return nil
	}
	return c.clock
}

// Model returns the cost model, or nil for a nil CPU.
func (c *CPU) Model() *Model {
	if c == nil {
		return nil
	}
	return c.model
}

// Now returns the current virtual time, or zero for a nil CPU.
func (c *CPU) Now() Time {
	if c == nil || c.clock == nil {
		return 0
	}
	return c.clock.Now()
}

// Charge advances virtual time by the cost of one operation of kind k.
//
// Charging is exempt from the guard-purity analysis: advancing virtual
// time is the simulation's analog of the wall clock moving while code
// executes, and the paper's FUNCTIONAL guards consume CPU time too
// (Table 2 prices them). It mutates only the meter, never state a guard
// or handler can branch on.
//
//spinvet:pure
func (c *CPU) Charge(k Kind) {
	if c == nil {
		return
	}
	c.spend(c.model.Cost(k))
}

// ChargeN advances virtual time by the cost of n operations of kind k.
//
//spinvet:pure (see Charge)
func (c *CPU) ChargeN(k Kind, n int) {
	if c == nil || n <= 0 {
		return
	}
	c.spend(c.model.Cost(k) * Duration(n))
}

// ChargeTo charges one operation of kind k to account a regardless of the
// active account. Handlers that do real work inside an event raise use it
// so their work is attributed to the kernel or user account while the
// dispatcher's own overhead stays in the events account (§3.2's
// breakdown separates "raising and dispatching events" from the useful
// work done in handlers).
func (c *CPU) ChargeTo(a Account, k Kind) {
	if c == nil {
		return
	}
	c.Begin(a)
	c.Charge(k)
	c.End()
}

// ChargeNTo charges n operations of kind k to account a.
func (c *CPU) ChargeNTo(a Account, k Kind, n int) {
	if c == nil || n <= 0 {
		return
	}
	c.Begin(a)
	c.ChargeN(k, n)
	c.End()
}

// SpendTo charges an explicit duration to account a.
func (c *CPU) SpendTo(a Account, d Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.Begin(a)
	c.spend(d)
	c.End()
}

// spend charges an explicit duration, used for costs that are data
// dependent rather than per-operation (wire serialization time, declared
// handler work).
func (c *CPU) spend(d Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.mu.Lock()
	c.totals[c.current] += d
	c.mu.Unlock()
	if c.clock != nil {
		c.clock.Advance(d)
	}
}

// Begin switches attribution to account a until the matching End. Begin/End
// pairs nest; the typical pattern is
//
//	cpu.Begin(vtime.AccountEvents)
//	defer cpu.End()
func (c *CPU) Begin(a Account) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stack = append(c.stack, c.current)
	c.current = a
	c.mu.Unlock()
}

// End pops the account pushed by the matching Begin. Unbalanced End calls
// panic: they indicate a bookkeeping bug in a substrate.
func (c *CPU) End() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.stack) == 0 {
		panic("vtime: CPU.End without matching Begin")
	}
	c.current = c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
}

// Idle attributes d to the idle account without changing the active
// account; schedulers call it when the run queue is empty and the clock
// jumps to the next simulator event.
func (c *CPU) Idle(d Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.mu.Lock()
	c.totals[AccountIdle] += d
	c.mu.Unlock()
	// The clock itself is advanced by the simulator when it dequeues the
	// next event; Idle only attributes the gap.
}

// Total reports the time attributed to account a so far.
func (c *CPU) Total(a Account) Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals[a]
}

// Breakdown is a snapshot of per-account totals.
type Breakdown struct {
	Totals [numAccounts]Duration
}

// Breakdown returns a snapshot of the per-account totals.
func (c *CPU) Breakdown() Breakdown {
	var b Breakdown
	if c == nil {
		return b
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b.Totals = c.totals
	return b
}

// Sum returns the total time across all accounts.
func (b Breakdown) Sum() Duration {
	var s Duration
	for _, d := range b.Totals {
		s += d
	}
	return s
}

// Of returns the time attributed to a.
func (b Breakdown) Of(a Account) Duration { return b.Totals[a] }

// String renders the breakdown as one line per account, largest first,
// with percentages of the total — the format used by `spin doc` to mirror
// the paper's §3.2 narrative.
func (b Breakdown) String() string {
	total := b.Sum()
	type row struct {
		a Account
		d Duration
	}
	rows := make([]row, 0, numAccounts)
	for a := Account(0); a < numAccounts; a++ {
		rows = append(rows, row{a, b.Totals[a]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	var sb strings.Builder
	fmt.Fprintf(&sb, "total %.2fs\n", float64(total)/1e9)
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(r.d) / float64(total)
		}
		fmt.Fprintf(&sb, "  %-7s %8.2fs  %5.1f%%\n", r.a, float64(r.d)/1e9, pct)
	}
	return sb.String()
}
