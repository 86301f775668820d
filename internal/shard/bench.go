package shard

import (
	"fmt"

	"spin/internal/dispatch"
	"spin/internal/rtti"
	"spin/internal/vtime"
)

// Scaling measurement for `spin tables -table shard` (clock: model). The
// host machine's core count is irrelevant here: each shard meters its own
// virtual clock (the same Alpha-calibrated model every other paper table
// uses), so the measurement captures what sharding changes structurally —
// the serialization domain of installs and raises — rather than whatever
// parallelism the build machine happens to offer. A shard's clock
// advances only by the work routed to it; the plane's makespan is the
// slowest-shard clock, exactly the completion time of N dispatchers
// draining their partitions concurrently.

var benchModule = rtti.NewModule("ShardBench")

// The install/raise churn workload: churnEvents events defined across the
// plane, churnRounds install-then-raise rounds per event — each round adds
// one binding, so installs see the paper's §3.1 quadratic recompile
// growth — and churnRaises synchronous raises after each install.
const (
	churnEvents = 256
	churnRounds = 8
	churnRaises = 32
)

// ScalingPoint is one row of the shard scaling table.
type ScalingPoint struct {
	// Shards is the plane width.
	Shards int
	// Events is the event population.
	Events int
	// Installs and Raises count the operations the workload performed.
	Installs int64
	Raises   int64
	// Makespan is the slowest shard's virtual clock at quiescence — the
	// plane's completion time.
	Makespan vtime.Duration
	// Throughput is aggregate raises per virtual second (raises over
	// makespan; installs ride inside the same window, which is the point:
	// raise throughput under install churn).
	Throughput float64
	// Speedup is this point's throughput over the 1-shard baseline's.
	Speedup float64
	// Balance is the min/max ratio of per-shard event populations (1.0 =
	// perfectly uniform).
	Balance float64
}

// measureScaling runs the churn workload against an n-shard plane and
// reports the aggregate point. Deterministic: same n, same row.
func measureScaling(n int) (ScalingPoint, error) {
	clocks := make([]*vtime.Clock, n)
	r, err := NewRouter(Config{
		Shards: n,
		NewShard: func(id int) *dispatch.Dispatcher {
			clock := &vtime.Clock{}
			clocks[id] = clock
			return dispatch.New(dispatch.WithCPU(vtime.NewCPU(clock, vtime.AlphaModel())))
		},
	})
	if err != nil {
		return ScalingPoint{}, err
	}

	sig := rtti.Sig(nil, rtti.Word)
	events := make([]*Event, churnEvents)
	perShard := make([]int, n)
	for i := range events {
		name := fmt.Sprintf("Shard.Churn.%03d", i)
		e, err := r.DefineEvent(name, sig)
		if err != nil {
			return ScalingPoint{}, err
		}
		events[i] = e
		perShard[e.Shard().ID()]++
	}

	h := dispatch.Handler{
		Proc: &rtti.Proc{Name: "ShardBench.H", Module: benchModule, Sig: sig},
		Fn:   func(any, []any) any { return nil },
	}
	pt := ScalingPoint{Shards: n, Events: churnEvents}
	for round := 0; round < churnRounds; round++ {
		for _, e := range events {
			if _, err := e.Install(h); err != nil {
				return ScalingPoint{}, err
			}
			pt.Installs++
			for k := 0; k < churnRaises; k++ {
				if _, err := e.Raise1(uintptr(k)); err != nil {
					return ScalingPoint{}, err
				}
				pt.Raises++
			}
		}
	}

	for _, c := range clocks {
		if d := vtime.Duration(c.Now()); d > pt.Makespan {
			pt.Makespan = d
		}
	}
	if pt.Makespan > 0 {
		pt.Throughput = float64(pt.Raises) / (float64(pt.Makespan) / 1e9)
	}
	minEv, maxEv := perShard[0], perShard[0]
	for _, c := range perShard[1:] {
		if c < minEv {
			minEv = c
		}
		if c > maxEv {
			maxEv = c
		}
	}
	if maxEv > 0 {
		pt.Balance = float64(minEv) / float64(maxEv)
	}
	return pt, nil
}

// MeasureScalingSweep measures each shard count and fills Speedup relative
// to the first point (conventionally 1 shard).
func MeasureScalingSweep(counts []int) ([]ScalingPoint, error) {
	pts := make([]ScalingPoint, 0, len(counts))
	for _, n := range counts {
		pt, err := measureScaling(n)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	if len(pts) > 0 && pts[0].Throughput > 0 {
		for i := range pts {
			pts[i].Speedup = pts[i].Throughput / pts[0].Throughput
		}
	}
	return pts, nil
}
