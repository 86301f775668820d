package main

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"spin/internal/admit"
	"spin/internal/dispatch"
	"spin/internal/rtti"
	"spin/internal/scenario"
)

// loadCmd drills the overload-control subsystem: it ramps offered
// asynchronous load on a real-time (unmetered) dispatcher from well under
// the admission pool's drain capacity to far past it, printing the queue,
// shed, pool, and degradation statistics at each step. Two handlers are
// installed on the loaded event — one essential, one in an optional
// priority class — so the ramp also shows the degradation controller
// stepping through its ladder: as depth and shed rate cross the configured
// thresholds the optional binding is compiled out of the dispatch plan,
// and as the ramp descends and calm observations accumulate it is compiled
// back in.
//
//	spin load                     default ramp: 0.5x 2x 8x 16x 4x 0.5x
//	spin load -step 500ms         longer steps
//	spin load -workers 8 -depth 128
//
// The drill is native-time (goroutines, wall-clock pacing), so exact
// figures vary by host; the shape — bounded depth, shed rate tracking
// overload, degradation engaging and releasing — is the point.
func loadCmd(args []string, stdout, stderr io.Writer) error {
	const producers = 4
	fs := newFlags("load", stderr)
	step := fs.Duration("step", 250*time.Millisecond, "wall-clock duration of each ramp step")
	workers := fs.Int("workers", 4, "admission pool worker cap")
	depth := fs.Int("depth", 64, "admission queue depth")
	service := fs.Duration("service", 200*time.Microsecond, "simulated handler service time (busy-wait)")
	if err := parse(fs, args); err != nil {
		return err
	}

	pol := admit.Policy{Mode: admit.Shed, Depth: *depth}
	d := dispatch.New(dispatch.WithAdmission(dispatch.AdmissionConfig{
		Workers: *workers,
		Default: &pol,
		Levels: []admit.Level{
			{Name: "brownout", QueueDepth: *depth / 2, ShedRate: 0.10, MinPriority: 2},
			{Name: "blackout", QueueDepth: *depth, ShedRate: 0.50, MinPriority: 1},
		},
		Hold:        2,
		SampleEvery: 16,
	}))

	sig := rtti.Sig(nil, rtti.Word)
	mod := rtti.NewModule("Load")
	ev, err := d.DefineEvent("Load.Request", sig, dispatch.AsAsync(), dispatch.WithOwner(mod))
	if err != nil {
		return err
	}
	var essential, optional atomic.Int64
	_, err = ev.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Load.Serve", Module: mod, Sig: sig},
		Fn: func(any, []any) any {
			end := time.Now().Add(*service)
			for time.Now().Before(end) {
			}
			essential.Add(1)
			return nil
		},
	})
	if err != nil {
		return err
	}
	// The optional extra (think: per-request analytics) rides in priority
	// class 2, first to be degraded away under load.
	_, err = ev.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Load.Extra", Module: mod, Sig: sig},
		Fn: func(any, []any) any {
			optional.Add(1)
			return nil
		},
	}, dispatch.WithPriority(2))
	if err != nil {
		return err
	}

	// Calibrate the host's real drain capacity with a short saturating
	// flood, so the ramp multiples are honest on any core count.
	start := time.Now()
	scenario.Offer(ev, 0, 150*time.Millisecond, producers)
	q := ev.AdmissionQueue()
	capacity := float64(scenario.AwaitDrained(q).Completed) / time.Since(start).Seconds()
	fmt.Fprintf(stdout, "spinload: %d workers, depth %d, %v service, GOMAXPROCS=%d\n",
		*workers, *depth, *service, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "calibrated drain capacity: %.0f raises/s\n\n", capacity)
	fmt.Fprintf(stdout, "%6s %10s %10s %8s %7s %6s %5s  %s\n",
		"load", "offered/s", "served/s", "shed", "shed%", "depth", "pool", "level")

	var prev admit.QueueStats
	for _, mult := range []float64{0.5, 2, 8, 16, 4, 0.5} {
		scenario.Offer(ev, capacity*mult, *step, producers)
		// A few explicit observations give the controller a chance to
		// de-escalate on the calm half of the ramp even when the sampled
		// cadence has gone quiet.
		for i := 0; i < 3; i++ {
			d.ObserveAdmission()
		}
		s := q.Stats()
		dSub := s.Submitted - prev.Submitted
		dCompleted := s.Completed - prev.Completed
		dShed := s.Shed - prev.Shed
		prev = s
		shedPct := 0.0
		if dSub > 0 {
			shedPct = 100 * float64(dShed) / float64(dSub)
		}
		lvl, name := d.AdmissionLevel()
		ps := d.AdmissionPool()
		fmt.Fprintf(stdout, "%5.1fx %10.0f %10.0f %8d %6.1f%% %6d %2d/%-2d  %d:%s\n",
			mult, capacity*mult, float64(dCompleted)/step.Seconds(), dShed, shedPct,
			s.Depth, ps.Running, ps.Capacity, lvl, name)
	}

	// Drain and report the final ledger: every submission accounted for.
	s := scenario.AwaitDrained(q)
	fmt.Fprintf(stdout, "\nledger: submitted=%d completed=%d shed=%d coalesced=%d (identity holds: %v)\n",
		s.Submitted, s.Completed, s.Shed, s.Coalesced,
		s.Submitted == s.Completed+s.Shed+s.Coalesced)
	fmt.Fprintf(stdout, "handlers: essential=%d optional=%d (gap = raises served degraded)\n",
		essential.Load(), optional.Load())
	lvl, name := d.AdmissionLevel()
	fmt.Fprintf(stdout, "final degradation level: %d:%s\n", lvl, name)
	return nil
}
