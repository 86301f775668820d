package dispatch

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spin/internal/admit"
	"spin/internal/rtti"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// waitDrained polls until the queue has settled every submission or the
// deadline passes.
func waitDrained(t *testing.T, q *admit.Queue, timeout time.Duration) admit.QueueStats {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		s := q.Stats()
		if s.Drained() {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue %s never drained: %+v", q.Name(), s)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadSoak hammers an asynchronous event at roughly 10x its drain
// rate under each admission policy, asserting two invariants the subsystem
// exists for: the goroutine count stays bounded by the pool (no unbounded
// go-per-raise), and the queue ledger stays consistent — every submission
// ends as exactly one of completed, shed, or coalesced. Half the producers
// submit through the batched ingress (RaiseBatch1) while a churn goroutine
// recompiles the plan underneath them — installs and uninstalls a
// priority-classed handler, toggles tracing, and forces degradation-level
// observations — so batched submission is soaked against every form of
// concurrent plan swap. Run with -race.
func TestOverloadSoak(t *testing.T) {
	const (
		workers   = 4
		producers = 8
		perProd   = 250
		batchLen  = 25 // batched producers submit perProd frames as 10 batches
	)
	policies := map[string]admit.Policy{
		"block":     {Mode: admit.Block, Depth: 16, BlockTimeout: time.Millisecond},
		"shed":      {Mode: admit.Shed, Depth: 16},
		"shedOld":   {Mode: admit.ShedOldest, Depth: 16},
		"coalesce":  {Mode: admit.Coalesce, Depth: 16},
		"defDepth0": {Mode: admit.Shed}, // zero depth selects DefaultDepth
	}
	for name, pol := range policies {
		pol := pol
		t.Run(name, func(t *testing.T) {
			d := New(WithAdmission(AdmissionConfig{
				Workers: workers,
				Default: &pol,
				Levels:  []admit.Level{{Name: "brownout", QueueDepth: 8, MinPriority: 2}},
				Hold:    1,
			}))
			e := mustDefine(t, d, "Load.Spin", rtti.Sig(nil, rtti.Word), AsAsync())
			var ran atomic.Int64
			_, err := e.Install(handler(voidProc("H", rtti.Word), func(any, []any) any {
				time.Sleep(100 * time.Microsecond) // drain rate ~ workers/100us
				ran.Add(1)
				return nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			var maxG atomic.Int64
			var shedSeen atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				batched := p%2 == 1
				go func() {
					defer wg.Done()
					if batched {
						// Batched ingress: the same perProd raises, submitted
						// as flat trains of batchLen frames.
						for b := 0; b < perProd/batchLen; b++ {
							flat := make([]any, batchLen)
							for i := range flat {
								flat[i] = b*batchLen + i
							}
							out := e.RaiseBatch1(flat)
							if out.Rejected != 0 {
								t.Errorf("batch rejected %d frames: %v", out.Rejected, out.Err())
								return
							}
							shedSeen.Add(int64(out.Shed))
							if g := int64(runtime.NumGoroutine()); g > maxG.Load() {
								maxG.Store(g)
							}
						}
						return
					}
					for i := 0; i < perProd; i++ {
						if err := e.RaiseAsync(i); err != nil {
							if !errors.Is(err, admit.ErrOverload) {
								t.Errorf("raise: %v", err)
								return
							}
							shedSeen.Add(1)
						}
						if g := int64(runtime.NumGoroutine()); g > maxG.Load() {
							maxG.Store(g)
						}
					}
				}()
			}
			// Plan churn concurrent with the producers: recompilations from
			// handler install/uninstall, trace toggling, and degradation
			// observations (queue depth crosses the brownout threshold under
			// this load, so levels genuinely move) — every raise and batch
			// must land on some valid plan generation.
			churnDone := make(chan struct{})
			churnStopped := make(chan struct{})
			go func() {
				defer close(churnStopped)
				tr := trace.New(trace.Config{Capacity: 1024})
				extra := handler(voidProc("Churn", rtti.Word), func(any, []any) any {
					return nil
				})
				for i := 0; ; i++ {
					select {
					case <-churnDone:
						return
					default:
					}
					b, err := e.Install(extra, WithPriority(2))
					if err != nil {
						t.Errorf("churn install: %v", err)
						return
					}
					if i%2 == 0 {
						e.Trace(tr)
					} else {
						e.Trace(nil)
					}
					d.ObserveAdmission()
					time.Sleep(50 * time.Microsecond)
					if err := e.Uninstall(b); err != nil {
						t.Errorf("churn uninstall: %v", err)
						return
					}
				}
			}()
			wg.Wait()
			close(churnDone)
			<-churnStopped
			e.Trace(nil)
			s := waitDrained(t, e.AdmissionQueue(), 10*time.Second)

			// The soak offers ~10x what the pool drains; without admission
			// control this spawns thousands of goroutines. Bound: producers
			// + pool workers + generous slack for timers and runtime
			// housekeeping.
			limit := int64(base + producers + workers + 32)
			if g := maxG.Load(); g > limit {
				t.Fatalf("goroutines peaked at %d (limit %d): admission is not bounding spawn", g, limit)
			}
			if s.Submitted != int64(producers*perProd) {
				t.Fatalf("submitted = %d, want %d", s.Submitted, producers*perProd)
			}
			if got := s.Completed + s.Shed + s.Coalesced; got != s.Submitted {
				t.Fatalf("ledger leak: completed %d + shed %d + coalesced %d = %d != submitted %d",
					s.Completed, s.Shed, s.Coalesced, got, s.Submitted)
			}
			switch pol.Mode {
			case admit.Shed, admit.Block:
				// Rejections and timeouts surface to the raiser.
				if s.Shed != shedSeen.Load() {
					t.Fatalf("queue counted %d sheds, raisers saw %d", s.Shed, shedSeen.Load())
				}
			default:
				// ShedOldest drops a pending victim and Coalesce merges;
				// the submitter itself is always admitted.
				if shedSeen.Load() != 0 {
					t.Fatalf("raisers saw %d sheds under %v", shedSeen.Load(), pol.Mode)
				}
			}
			if ran.Load() != s.Completed {
				t.Fatalf("handler ran %d times, queue completed %d", ran.Load(), s.Completed)
			}
		})
	}
}

// TestShedReturnsTypedOverloadError: a shed RaiseAsync reports the typed
// error synchronously, with the queue identified.
func TestShedReturnsTypedOverloadError(t *testing.T) {
	pol := admit.Policy{Mode: admit.Shed, Depth: 1}
	d := New(WithAdmission(AdmissionConfig{Workers: 1, Default: &pol}))
	e := mustDefine(t, d, "Load.Spin", rtti.Sig(nil, rtti.Word), AsAsync())
	gate := make(chan struct{})
	_, _ = e.Install(handler(voidProc("H", rtti.Word), func(any, []any) any {
		<-gate
		return nil
	}))
	// Saturate: one raise occupies the worker, one fills the queue, the
	// rest must shed.
	var overloaded *admit.OverloadError
	var sheds int
	for i := 0; i < 10; i++ {
		if err := e.RaiseAsync(i); err != nil {
			if !errors.As(err, &overloaded) {
				t.Fatalf("err = %v, want *OverloadError", err)
			}
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("no raise was shed at 10x capacity")
	}
	if overloaded.Queue != "Load.Spin" || !errors.Is(overloaded, admit.ErrOverload) {
		t.Fatalf("overload error = %+v", overloaded)
	}
	close(gate)
	waitDrained(t, e.AdmissionQueue(), 5*time.Second)
}

// TestBlockPolicyWaitsForSpace: a Block-mode raise parks until the queue
// has room instead of shedding.
func TestBlockPolicyWaitsForSpace(t *testing.T) {
	pol := admit.Policy{Mode: admit.Block, Depth: 1}
	d := New(WithAdmission(AdmissionConfig{Workers: 1, Default: &pol}))
	e := mustDefine(t, d, "Load.Spin", rtti.Sig(nil, rtti.Word), AsAsync())
	gate := make(chan struct{})
	_, _ = e.Install(handler(voidProc("H", rtti.Word), func(any, []any) any {
		<-gate
		return nil
	}))
	if err := e.RaiseAsync(0); err != nil { // occupies the worker
		t.Fatal(err)
	}
	if err := e.RaiseAsync(1); err != nil { // fills the queue
		t.Fatal(err)
	}
	unblocked := make(chan error, 1)
	go func() { unblocked <- e.RaiseAsync(2) }()
	select {
	case err := <-unblocked:
		t.Fatalf("full-queue raise returned immediately: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate) // drain; the parked raise is granted the freed slot
	if err := <-unblocked; err != nil {
		t.Fatalf("blocked raise failed: %v", err)
	}
	s := waitDrained(t, e.AdmissionQueue(), 5*time.Second)
	if s.Shed != 0 || s.Completed != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestSetAdmissionPerEvent: one event opts into a policy on a dispatcher
// with no default; others keep the plain spawn path; removing the policy
// restores it.
func TestSetAdmissionPerEvent(t *testing.T) {
	d := New(WithAdmission(AdmissionConfig{Workers: 1}))
	e := mustDefine(t, d, "Load.Spin", rtti.Sig(nil, rtti.Word), AsAsync())
	plain := mustDefine(t, d, "Load.Plain", rtti.Sig(nil, rtti.Word), AsAsync())
	var ran atomic.Int64
	fn := func(any, []any) any { ran.Add(1); return nil }
	_, _ = e.Install(handler(voidProc("H", rtti.Word), fn))
	_, _ = plain.Install(handler(voidProc("H2", rtti.Word), fn))

	if e.AdmissionQueue() != nil || plain.AdmissionQueue() != nil {
		t.Fatal("no-default dispatcher compiled queues in")
	}
	e.SetAdmission(&admit.Policy{Mode: admit.Shed, Depth: 2})
	if e.AdmissionQueue() == nil {
		t.Fatal("SetAdmission did not compile the queue into the plan")
	}
	if plain.AdmissionQueue() != nil {
		t.Fatal("policy leaked to another event")
	}
	if err := e.RaiseAsync(1); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, e.AdmissionQueue(), 5*time.Second)
	e.SetAdmission(nil)
	if e.AdmissionQueue() != nil {
		t.Fatal("SetAdmission(nil) left the queue compiled in")
	}
}

// TestRetryBackoffRecoversTransientFailure: a panicking async handler is
// requeued with backoff and eventually succeeds, with the attempts counted
// on the queue ledger and charged to the fault ledger.
func TestRetryBackoffRecoversTransientFailure(t *testing.T) {
	pol := admit.Policy{Mode: admit.Shed, Depth: 8,
		Retry: 3, RetryBackoff: time.Millisecond}
	d := New(WithAdmission(AdmissionConfig{Workers: 1, Default: &pol}))
	e := mustDefine(t, d, "Flaky.Tick", rtti.Sig(nil, rtti.Word))
	var attempts atomic.Int64
	done := make(chan struct{})
	_, err := e.Install(handler(voidProc("H", rtti.Word), func(any, []any) any {
		if attempts.Add(1) <= 2 {
			panic("transient")
		}
		close(done)
		return nil
	}), Async())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise(7); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("handler never succeeded (attempts=%d)", attempts.Load())
	}
	s := waitDrained(t, e.AdmissionQueue(), 5*time.Second)
	if attempts.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", attempts.Load())
	}
	if s.Retried != 2 {
		t.Fatalf("retried = %d, want 2", s.Retried)
	}
}

// TestRetryExhaustionIsFinal: a handler that never stops panicking gives up
// after the policy's retry budget.
func TestRetryExhaustionIsFinal(t *testing.T) {
	pol := admit.Policy{Mode: admit.Shed, Depth: 8,
		Retry: 2, RetryBackoff: time.Millisecond}
	d := New(WithAdmission(AdmissionConfig{Workers: 1, Default: &pol}))
	e := mustDefine(t, d, "Flaky.Tick", rtti.Sig(nil, rtti.Word))
	var attempts atomic.Int64
	_, _ = e.Install(handler(voidProc("H", rtti.Word), func(any, []any) any {
		attempts.Add(1)
		panic("permanent")
	}), Async())
	if _, err := e.Raise(7); err != nil {
		t.Fatal(err)
	}
	s := waitDrained(t, e.AdmissionQueue(), 5*time.Second)
	if got := attempts.Load(); got != 3 { // first run + 2 retries
		t.Fatalf("attempts = %d, want 3", got)
	}
	if s.Completed != 1 || s.Retried != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestModuleAsyncQuota: a module descriptor's async admission quota bounds
// its Async() installations; uninstalling releases the slot.
func TestModuleAsyncQuota(t *testing.T) {
	d := New(syncSpawner())
	e := mustDefine(t, d, "M.P", rtti.Sig(nil, rtti.Word))
	mod := rtti.NewModule("Greedy").WithAsyncQuota(1)
	h := func(name string) Handler {
		return Handler{
			Proc: &rtti.Proc{Name: name, Module: mod, Sig: rtti.Sig(nil, rtti.Word)},
			Fn:   func(any, []any) any { return nil },
		}
	}
	b1, err := e.Install(h("H1"), Async())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Install(h("H2"), Async()); !errors.Is(err, ErrAdmitQuota) {
		t.Fatalf("second async install err = %v, want ErrAdmitQuota", err)
	}
	// Synchronous installations are not charged against the async quota.
	if _, err := e.Install(h("H3")); err != nil {
		t.Fatal(err)
	}
	if err := e.Uninstall(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Install(h("H4"), Async()); err != nil {
		t.Fatalf("install after release: %v", err)
	}
}

// TestDegradationLevels walks the controller deterministically: a gated
// worker builds real queue depth, one forced observation escalates, the
// optional (priority-classed) binding is compiled out of its event's plan,
// and calm observations step back down and compile it back in.
func TestDegradationLevels(t *testing.T) {
	pol := admit.Policy{Mode: admit.Shed, Depth: 8}
	d := New(WithAdmission(AdmissionConfig{
		Workers: 1,
		Default: &pol,
		Levels: []admit.Level{
			{Name: "brownout", QueueDepth: 4, MinPriority: 2},
		},
		Hold: 2,
	}))
	load := mustDefine(t, d, "Load.Spin", rtti.Sig(nil, rtti.Word), AsAsync())
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	_, _ = load.Install(handler(voidProc("H", rtti.Word), func(any, []any) any {
		once.Do(func() { close(started) })
		<-gate
		return nil
	}))

	render := mustDefine(t, d, "App.Render", rtti.Sig(nil, rtti.Word))
	var essential, optional atomic.Int64
	_, err := render.Install(handler(voidProc("Essential", rtti.Word), func(any, []any) any {
		essential.Add(1)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = render.Install(handler(voidProc("Optional", rtti.Word), func(any, []any) any {
		optional.Add(1)
		return nil
	}), WithPriority(2))
	if err != nil {
		t.Fatal(err)
	}

	// Build real depth: one raise occupies the gated worker, five queue.
	for i := 0; i < 6; i++ {
		if err := load.RaiseAsync(i); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	d.ObserveAdmission()
	if lvl, name := d.AdmissionLevel(); lvl != 1 || name != "brownout" {
		t.Fatalf("level = %d %q, want 1 brownout", lvl, name)
	}
	if _, err := render.Raise(1); err != nil {
		t.Fatal(err)
	}
	if essential.Load() != 1 || optional.Load() != 0 {
		t.Fatalf("degraded raise: essential=%d optional=%d", essential.Load(), optional.Load())
	}

	// Drain, then hold calm observations to step back down.
	close(gate)
	waitDrained(t, load.AdmissionQueue(), 5*time.Second)
	for i := 0; i < 3; i++ {
		d.ObserveAdmission()
	}
	if lvl, _ := d.AdmissionLevel(); lvl != 0 {
		t.Fatalf("level after calm = %d, want 0", lvl)
	}
	if _, err := render.Raise(2); err != nil {
		t.Fatal(err)
	}
	if essential.Load() != 2 || optional.Load() != 1 {
		t.Fatalf("recovered raise: essential=%d optional=%d", essential.Load(), optional.Load())
	}
}

// TestDegradationEmitsTraceSpans: level transitions record KindDegrade
// spans.
func TestDegradationEmitsTraceSpans(t *testing.T) {
	pol := admit.Policy{Mode: admit.Shed, Depth: 4}
	tr := trace.New(trace.Config{Capacity: 256})
	d := New(
		WithTracer(tr),
		WithAdmission(AdmissionConfig{
			Workers: 1,
			Default: &pol,
			Levels:  []admit.Level{{Name: "brownout", QueueDepth: 2, MinPriority: 2}},
			Hold:    1,
		}))
	load := mustDefine(t, d, "Load.Spin", rtti.Sig(nil, rtti.Word), AsAsync())
	gate := make(chan struct{})
	_, _ = load.Install(handler(voidProc("H", rtti.Word), func(any, []any) any {
		<-gate
		return nil
	}))
	for i := 0; i < 4; i++ {
		_ = load.RaiseAsync(i)
	}
	d.ObserveAdmission()
	close(gate)
	waitDrained(t, load.AdmissionQueue(), 5*time.Second)
	d.ObserveAdmission()
	d.ObserveAdmission()

	var ups, downs int
	for _, sp := range tr.Snapshot() {
		if sp.Kind.String() == "degrade" {
			if sp.Name == "brownout" {
				ups++
			} else {
				downs++
			}
		}
	}
	if ups == 0 || downs == 0 {
		t.Fatalf("degrade spans: up=%d down=%d, want both", ups, downs)
	}
}

// TestPooledSpawnerWatchdogRecoversCapacity exercises the watchdog on the
// spawnHandler path: an async invocation abandoned by its deadline watchdog while
// squatting a pooled worker must hand capacity back (Abandon), and its
// eventual return must reclaim it — never double-count.
func TestPooledSpawnerWatchdogRecoversCapacity(t *testing.T) {
	d := New() // default spawner: the shared admission pool
	e := mustDefine(t, d, "M.Slow", rtti.Sig(nil, rtti.Word))
	release := make(chan struct{})
	h := Handler{
		Proc: &rtti.Proc{Name: "Slow", Module: testModule, Sig: rtti.Sig(nil, rtti.Word)},
		Fn: func(any, []any) any {
			<-release // uncooperative: ignores the watchdog's cancel
			return nil
		},
	}
	b, err := e.Install(h, Async(), WithDeadline(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Raise(1); err != nil {
		t.Fatal(err)
	}
	// The watchdog fires and abandons the squatted worker.
	deadline := time.Now().Add(5 * time.Second)
	for d.AdmissionPool().Extra != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never abandoned: %+v", d.AdmissionPool())
		}
		time.Sleep(time.Millisecond)
	}
	if d.AdmissionPool().Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", d.AdmissionPool().Abandoned)
	}
	if b.Terminations() != 1 {
		t.Fatalf("terminations = %d, want 1", b.Terminations())
	}
	// The invocation finally returns: the extra capacity is reclaimed and
	// the completion is not double-counted as a success.
	close(release)
	for d.AdmissionPool().Extra != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("capacity never reclaimed: %+v", d.AdmissionPool())
		}
		time.Sleep(time.Millisecond)
	}
	if b.Terminations() != 1 {
		t.Fatalf("terminations after return = %d, want 1", b.Terminations())
	}
}

// TestAdmissionInactiveUnderSimulator: metered dispatchers keep the
// deterministic inline async path; the queue is compiled in but bypassed.
func TestAdmissionInactiveUnderSimulator(t *testing.T) {
	pol := admit.Policy{Mode: admit.Shed, Depth: 1}
	var clock vtime.Clock
	cpu := vtime.NewCPU(&clock, vtime.AlphaModel())
	sim := vtime.NewSimulator(&clock)
	d := New(WithCPU(cpu), WithSimulator(sim),
		WithAdmission(AdmissionConfig{Workers: 1, Default: &pol}))
	e := mustDefine(t, d, "Load.Spin", rtti.Sig(nil, rtti.Word), AsAsync())
	var ran atomic.Int64
	_, _ = e.Install(handler(voidProc("H", rtti.Word), func(any, []any) any {
		ran.Add(1)
		return nil
	}))
	// Far beyond the queue depth: nothing sheds under the simulator.
	for i := 0; i < 10; i++ {
		if err := e.RaiseAsync(i); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(0)
	if ran.Load() != 10 {
		t.Fatalf("ran = %d, want 10", ran.Load())
	}
	if s := e.AdmissionQueue().Stats(); s.Submitted != 0 {
		t.Fatalf("simulator path touched the queue: %+v", s)
	}
}

// TestAdmissionEnabledNoPolicyZeroAlloc: compiling the admission
// subsystem into the dispatcher must cost the synchronous fast path
// nothing when no policy applies to an event — the no-policy raise pays
// one nil check, never an allocation. This is the third standing 0-alloc
// invariant (alongside tracing-off and fault-policy-on) gated by
// `make alloccheck`.
func TestAdmissionEnabledNoPolicyZeroAlloc(t *testing.T) {
	d := New(WithAdmission(AdmissionConfig{Workers: 1}))
	ev, err := d.DefineEvent("Load.NoPolicy", fastSig(1), WithIntrinsic(fastHandler(1)))
	if err != nil {
		t.Fatal(err)
	}
	if ev.AdmissionQueue() != nil {
		t.Fatal("no-policy event compiled an admission queue in")
	}
	if n := testing.AllocsPerRun(1000, func() { _, _ = ev.Raise1(uint64(7)) }); n != 0 {
		t.Errorf("admission enabled, no policy: %v allocs/raise, want 0", n)
	}
}

// TestSetAdmissionChurnRetiresQueues: SetAdmission retires the queue it
// replaces once the queue drains, and the queue's shed program with it, so
// toggling admission on a traced event leaves the controller's queue list
// and the tracer's program registry bounded. A queue replaced with work in
// flight stays observed until it drains; after it leaves, its submissions
// and sheds stay in the load totals.
func TestSetAdmissionChurnRetiresQueues(t *testing.T) {
	const toggles = 10_000
	tracer := trace.New(trace.Config{Capacity: 256})
	d := New(WithTracer(tracer), WithAdmission(AdmissionConfig{
		Workers: 1,
		Levels:  []admit.Level{{Name: "never", QueueDepth: 1 << 30, MinPriority: 2}},
	}))
	e := mustDefine(t, d, "Load.Churn", rtti.Sig(nil, rtti.Word), AsAsync())
	gate := make(chan struct{})
	if _, err := e.Install(handler(voidProc("H", rtti.Word), func(any, []any) any {
		<-gate
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	a := d.admit
	queues := func() int {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.queues)
	}
	progs := tracer.Programs()
	pol := admit.Policy{Mode: admit.Shed, Depth: 1}
	for i := 0; i < toggles; i++ {
		e.SetAdmission(&pol)
		e.SetAdmission(nil)
	}
	if n := queues(); n != 0 {
		t.Fatalf("%d toggles left %d queues observed, want 0", toggles, n)
	}
	if n := tracer.Programs(); n > progs+2*tracer.Capacity() {
		t.Fatalf("%d toggles left %d trace programs registered, want at most %d",
			toggles, n, progs+2*tracer.Capacity())
	}

	// One raise runs gated, one waits, the third is shed; the queue is
	// replaced busy and stays observed until it drains.
	e.SetAdmission(&pol)
	q := e.AdmissionQueue()
	for i := 0; i < 3; i++ {
		_ = e.RaiseAsync(i)
	}
	for q.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	e.SetAdmission(nil)
	if n := queues(); n != 1 {
		t.Fatalf("busy replaced queue: %d queues observed, want 1", n)
	}
	d.ObserveAdmission()
	a.mu.Lock()
	sub, shed := a.lastSub, a.lastShd
	a.mu.Unlock()
	close(gate)
	s := waitDrained(t, q, 5*time.Second)
	if !s.Identity() || s.Shed == 0 {
		t.Fatalf("replaced queue ledger %+v: identity broken or nothing shed", s)
	}
	d.ObserveAdmission()
	if n := queues(); n != 0 {
		t.Fatalf("drained replaced queue still observed: %d queues", n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.lastSub != sub || a.lastShd != shed || a.baseSub != s.Submitted || a.baseShd != s.Shed {
		t.Fatalf("totals after retirement: submitted %d→%d, shed %d→%d, base %d/%d, want them kept at the queue's %d/%d",
			sub, a.lastSub, shed, a.lastShd, a.baseSub, a.baseShd, s.Submitted, s.Shed)
	}
}
