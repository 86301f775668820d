package main

import (
	"fmt"
	"time"

	"spin/internal/dispatch"
	"spin/internal/fs"
	"spin/internal/netwire"
	"spin/internal/vtime"
)

// unitCosts times calls into single public functions from outside, within
// the budget: the nine raise shapes, the control plane's install and
// uninstall, and the isolated costs that the simulated workloads' counts
// multiply. The same code runs whatever the workload.
func unitCosts(seed uint64, budget time.Duration) (map[string]float64, error) {
	vals := map[string]float64{}
	share := budget / 4

	for _, build := range []func(uint64) (*raiseRun, error){newRaiseHot, newRaiseHeavy} {
		r, err := build(seed)
		if err != nil {
			return nil, err
		}
		if err := r.run(newRecorder(timeLimits(share), r.raisesPerRound())); err != nil {
			return nil, err
		}
		for shape, ns := range r.shapeNsPerRaise() {
			vals["dispatch.raise_ns."+shape] = ns
		}
	}

	c, err := newCtlChurn(seed)
	if err != nil {
		return nil, err
	}
	err = c.run(newRecorder(timeLimits(share), 1))
	c.close()
	if err != nil {
		return nil, err
	}
	vals["dispatch.install_p50_ns"] = c.install.quantile(0.50)
	vals["dispatch.install_p99_ns"] = c.install.quantile(0.99)
	vals["dispatch.uninstall_p50_ns"] = c.uninstall.quantile(0.50)
	vals["dispatch.raise_after_swap_ns"] = c.afterSwap.quantile(0.50)

	// At plus Step of an empty callback: the simulator's heap alone.
	sim := vtime.NewSimulator(&vtime.Clock{})
	nop := func() {}
	vals["vtime.at_step_ns"] = timeCalls(share/4, func() {
		sim.At(sim.Clock().Now(), nop)
		sim.Step()
	})

	// One frame from Send to the receiver's callback, at two sizes.
	link := netwire.NewLink(sim, 0, 0)
	tx, err := link.Attach("tx")
	if err != nil {
		return nil, err
	}
	rx, err := link.Attach("rx")
	if err != nil {
		return nil, err
	}
	delivered := 0
	rx.SetReceiver(func(*netwire.Frame) { delivered++ })
	for _, f := range []struct {
		name string
		size int
	}{{"netwire.send_deliver_ns.64", 64}, {"netwire.send_deliver_ns.1500", netwire.MTU}} {
		vals[f.name] = timeCalls(share/4, func() {
			_ = tx.Send(&netwire.Frame{Dst: "rx", EtherType: netwire.TypeIP, Size: f.size}) // within the MTU
			sim.Run(0)
		})
	}

	// A document lookup in a tree the size of the HTTP workloads'.
	tree, err := fs.New(dispatch.New(), nil, "")
	if err != nil {
		return nil, err
	}
	var paths [numDocs]string
	for i := range paths {
		paths[i] = "/www" + docPath(i)
		tree.Put(paths[i], []byte(paths[i]))
	}
	i, found := 0, 0
	vals["fs.get_ns"] = timeCalls(share/4, func() {
		if _, ok := tree.Get(paths[i%numDocs]); ok {
			found++
		}
		i++
	})
	if found != i || delivered == 0 {
		return nil, fmt.Errorf("unit costs: %d of %d lookups found their document, %d frames delivered", found, i, delivered)
	}
	return vals, nil
}

// timeCalls calls fn in batches for the budget and returns the nanoseconds
// per call of the best decile of batches.
func timeCalls(budget time.Duration, fn func()) float64 {
	const batch = 1000
	var perCall []float64
	for start := time.Now(); time.Since(start) < budget || len(perCall) == 0; {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		perCall = append(perCall, float64(time.Since(t))/batch)
	}
	return bestDecile(perCall, true)
}
