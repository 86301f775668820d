package dispatch

import (
	"context"
	"sync"
	"sync/atomic"

	"spin/internal/admit"
	"spin/internal/journal"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// AdmissionConfig configures the dispatcher's overload control (see
// internal/admit and DESIGN.md decision 13).
type AdmissionConfig struct {
	// Workers caps the shared worker pool that drains admission queues and
	// backs the default spawner; zero selects the pool default.
	Workers int
	// Default, when non-nil, gives every event defined on the dispatcher a
	// bounded admission queue under this policy. Individual events override
	// it (or opt out) with Event.SetAdmission. A nil Default leaves events
	// unqueued unless they opt in.
	Default *admit.Policy
	// Levels is the degradation ladder, ordered mild to severe; empty
	// disables the degradation controller.
	Levels []admit.Level
	// Hold is the number of consecutive calm load observations before the
	// controller steps down one level; values below 1 select 1.
	Hold int
	// SampleEvery observes load every N admissions (sheds always observe);
	// zero selects 64.
	SampleEvery int
}

// WithAdmission enables overload control: asynchronous raises and handler
// invocations pass through bounded admission queues drained by the shared
// worker pool, and (when Levels is set) a degradation controller disables
// optional bindings by priority class as load crosses the configured
// thresholds. Events without a policy still execute the plain spawn path —
// admission is compiled into the dispatch plan exactly like tracing and
// fault capture, so the no-policy raise path pays one nil check.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(d *Dispatcher) { d.admitCfg = &cfg }
}

// admitCtl is the dispatcher's overload controller: the bridge between the
// mechanism-free admission package (queues, pool, degradation state
// machine) and the dispatch machinery. It owns the shared worker pool —
// which also backs the default spawner — creates per-event queues, wraps
// admitted invocations in the supervised run (watchdog, panic capture),
// and turns the Degrader's level transitions into commits (see
// Event.commit). applyMu serializes level application, so a transition
// can sweep every event without holding mu across the sweep.
type admitCtl struct {
	d          *Dispatcher
	pool       *admit.Pool
	defaultPol *admit.Policy
	degrader   *admit.Degrader // nil when no ladder is configured
	sampleMask uint64

	admissions atomic.Uint64 // drives sampled load observation

	mu     sync.Mutex
	queues []admitQueue
	// baseSub and baseShd are the final submissions and sheds of the
	// queues retired so far (tallyLocked).
	baseSub int64
	baseShd int64
	lastSub int64 // shed-rate window: submissions at last observation
	lastShd int64 // and sheds at last observation

	applyMu sync.Mutex
	level   atomic.Int32 // applied degradation level, for accessors
}

// admitQueue is one queue the controller observes: an event's current
// queue, or one SetAdmission replaced that has not drained yet.
type admitQueue struct {
	q        *admit.Queue
	prog     *trace.Program // the shed spans' program; nil when untraced
	replaced bool
}

func newAdmitCtl(d *Dispatcher, cfg AdmissionConfig) *admitCtl {
	a := &admitCtl{
		d:          d,
		pool:       admit.NewPool(cfg.Workers),
		defaultPol: cfg.Default,
	}
	if len(cfg.Levels) > 0 {
		a.degrader = admit.NewDegrader(cfg.Levels, cfg.Hold)
	}
	every := cfg.SampleEvery
	if every <= 0 {
		every = 64
	}
	// Round the sampling interval up to a power of two so the hot-path
	// check is a mask, and observation cadence stays branch-cheap.
	n := uint64(1)
	for n < uint64(every) {
		n <<= 1
	}
	a.sampleMask = n - 1
	return a
}

// newQueue creates and registers one event's admission queue. The shed
// hook carries a pre-registered trace program, so shedding under sustained
// overload — the one time shed spans fire in volume — allocates nothing.
func (a *admitCtl) newQueue(name string, pol admit.Policy) *admit.Queue {
	q := admit.NewQueue(name, pol, a.pool)
	var prog *trace.Program
	if t := a.d.tracer; t != nil {
		prog = t.Program(trace.EventMeta{Event: name})
	}
	q.OnShed(func() {
		if prog != nil {
			prog.Shed(q.Stats().Depth, uint8(pol.Mode))
		}
		// Sheds are the load signal degradation exists for: always observe.
		a.observe()
	})
	a.mu.Lock()
	a.queues = append(a.queues, admitQueue{q: q, prog: prog})
	a.mu.Unlock()
	return q
}

// replace marks q, the queue SetAdmission replaced, to be retired once it
// drains: work admitted to it still drains through the pool, and a raise
// that loaded the plan before the swap may still submit to it.
func (a *admitCtl) replace(q *admit.Queue) {
	a.mu.Lock()
	for i := range a.queues {
		if a.queues[i].q == q {
			a.queues[i].replaced = true
		}
	}
	_, _, _, retired := a.tallyLocked()
	a.mu.Unlock()
	retirePrograms(retired)
}

// tallyLocked sums the observed queues' depth, submissions and sheds, the
// retired queues' included, and retires on the way the replaced queues
// that have drained: their final counts fold into the base totals, so the
// sums never fall, and they leave a.queues. A submission a retired queue
// takes later still runs, unobserved. It returns the retired queues' shed
// programs, for the caller to retire (retirePrograms) once it has released
// a.mu.
func (a *admitCtl) tallyLocked() (depth int, submitted, shed int64, retired []*trace.Program) {
	kept := a.queues[:0]
	for _, aq := range a.queues {
		s := aq.q.Stats()
		if aq.replaced && s.Drained() {
			a.baseSub += s.Submitted
			a.baseShd += s.Shed
			if aq.prog != nil {
				retired = append(retired, aq.prog)
			}
			continue
		}
		kept = append(kept, aq)
		depth += s.Depth
		submitted += s.Submitted
		shed += s.Shed
	}
	clear(a.queues[len(kept):])
	a.queues = kept
	return depth, submitted + a.baseSub, shed + a.baseShd, retired
}

// retirePrograms retires the shed programs of retired queues.
func retirePrograms(progs []*trace.Program) {
	for _, p := range progs {
		p.Retire()
	}
}

// defaultPolicy returns the dispatcher-wide default admission policy, or
// nil when events start unqueued.
func (a *admitCtl) defaultPolicy() *admit.Policy { return a.defaultPol }

// noteAdmission samples load observation on the admission path.
func (a *admitCtl) noteAdmission() {
	if a.degrader == nil {
		return
	}
	if a.admissions.Add(1)&a.sampleMask == 0 {
		a.observe()
	}
}

// observe feeds one load sample (aggregate queue depth, shed rate over the
// window since the previous observation) to the degradation controller and
// applies any level transition it decides.
func (a *admitCtl) observe() {
	if a.degrader == nil {
		return
	}
	a.mu.Lock()
	depth, submitted, shed, retired := a.tallyLocked()
	dSub := submitted - a.lastSub
	dShd := shed - a.lastShd
	a.lastSub, a.lastShd = submitted, shed
	rate := 0.0
	if dSub > 0 {
		rate = float64(dShd) / float64(dSub)
	}
	from, to, changed := a.degrader.Observe(depth, rate)
	a.mu.Unlock()
	retirePrograms(retired)
	if changed {
		a.applyLevel(from, to)
	}
}

// applyLevel carries out a degradation transition: bindings whose priority
// class is disabled at the now-current level are compiled out of their
// events' plans, previously disabled classes that the level re-admits are
// compiled back in. The minimum disabled priority is re-read under mu at
// apply time, so racing transitions each apply the controller's current
// truth and the last application wins.
func (a *admitCtl) applyLevel(from, to int) {
	a.applyMu.Lock()
	defer a.applyMu.Unlock()
	a.mu.Lock()
	minPri := a.degrader.MinPriority()
	cur := a.degrader.Level()
	name := a.degrader.LevelName(to)
	a.mu.Unlock()
	a.level.Store(int32(cur))
	a.d.sweep(func(t *txn, b *Binding) {
		if want := minPri > 0 && b.priority >= minPri; b.degraded.Load() != want {
			b.degraded.Store(want)
			t.changed(b)
			t.stale = true
		}
	})
	if t := a.d.tracer; t != nil {
		t.Degrade(from, to, name)
	}
	a.d.record(journal.Record{Kind: journal.KindDegrade, Event: name, A: int64(from), B: int64(to)})
}

// supervised wraps one admitted handler invocation as pool work: panic
// capture into the fault ledger, a wall-clock watchdog with cooperative
// cancellation, watchdog survival for the pool (Abandon raises the worker
// cap while the invocation squats a worker, Reclaim lowers it if the
// invocation ever returns). A failed run is final: its panic or deadline
// fault is charged against the binding's fault budget.
func (a *admitCtl) supervised(b *Binding, invoke func(context.Context) any) admit.Work {
	return func() {
		if _, _, abandoned := a.d.watchdog(b, b.deadline, invoke, a.pool.Abandon); abandoned {
			// A replacement worker may have started when the watchdog
			// abandoned this invocation; hand the extra capacity back.
			a.pool.Reclaim()
		}
	}
}

// runAsync is every plan's Async supervisor: one asynchronous handler
// invocation of tag, the step's Binding, admitted through q, the event's
// compiled-in queue, or spawned under supervision when the event has none.
// Under the simulator the queue is inactive — a single-threaded simulation
// cannot overload itself, and determinism matters more than backpressure
// there — so the invocation takes the supervised spawn path too.
func runAsync(q *admit.Queue, tag any, arity int, invoke func(context.Context) any) {
	b := tag.(*Binding)
	d := b.event.d
	if q == nil || d.sim != nil {
		d.spawnHandler(tag, arity, invoke)
		return
	}
	// The submission stands for the thread spawn the raiser pays for.
	d.cpu.ChargeTo(vtime.AccountKernel, vtime.ThreadSpawnBase)
	d.cpu.ChargeNTo(vtime.AccountKernel, vtime.ThreadSpawnArg, arity)
	d.admit.noteAdmission()
	// The raiser has already proceeded (fire-and-forget): a shed here is
	// accounted in the queue's stats and trace span, not returned.
	_ = q.Submit(context.Background(), tag, d.admit.supervised(b, invoke))
}

// submitRaise admits one whole asynchronous raise: the plan executes on a
// pool worker instead of a dedicated goroutine, and the raiser gets the
// overload verdict synchronously (nil, or an error wrapping
// admit.ErrOverload). Coalesce-mode queues merge pending raises of the
// same event.
func (d *Dispatcher) submitRaise(q *admit.Queue, e *Event, args []any) error {
	d.cpu.ChargeTo(vtime.AccountKernel, vtime.ThreadSpawnBase)
	d.cpu.ChargeNTo(vtime.AccountKernel, vtime.ThreadSpawnArg, len(args))
	d.admit.noteAdmission()
	return q.Submit(context.Background(), e, func() {
		_, _ = e.raiseWith(e.plan.Load(), args) // the raise owns args
	})
}

// AdmissionPool returns a snapshot of the shared worker pool backing
// admission queues and the default spawner.
func (d *Dispatcher) AdmissionPool() admit.PoolStats { return d.admit.pool.Stats() }

// AdmissionLevel returns the overload controller's applied degradation
// level (0 = normal) and its name.
func (d *Dispatcher) AdmissionLevel() (int, string) {
	lvl := int(d.admit.level.Load())
	a := d.admit
	if a.degrader == nil {
		return 0, "normal"
	}
	a.mu.Lock()
	name := a.degrader.LevelName(lvl)
	a.mu.Unlock()
	return lvl, name
}

// ObserveAdmission forces one load observation, for operators and
// deterministic tests; the sampled cadence on the admission path does the
// same thing on its own under load.
func (d *Dispatcher) ObserveAdmission() { d.admit.observe() }
