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

// ScalingConfig shapes the install/raise churn workload.
type ScalingConfig struct {
	// Events is the number of events defined across the plane.
	Events int
	// Rounds is the number of install-then-raise rounds per event; each
	// round adds one binding, so installs see the paper's §3.1 quadratic
	// recompile growth.
	Rounds int
	// RaisesPerInstall is the number of synchronous raises after each
	// install.
	RaisesPerInstall int
	// Replicas overrides the ring's virtual-node count (0 = default).
	Replicas int
}

func (c ScalingConfig) withDefaults() ScalingConfig {
	if c.Events == 0 {
		c.Events = 256
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.RaisesPerInstall == 0 {
		c.RaisesPerInstall = 32
	}
	return c
}

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
	// Speedup is this point's throughput over the 1-shard baseline's;
	// filled by MeasureScalingSweep, 0 from MeasureScaling alone.
	Speedup float64
	// Balance is the min/max ratio of per-shard event populations (1.0 =
	// perfectly uniform).
	Balance float64
}

// MeasureScaling runs the churn workload against an n-shard plane and
// reports the aggregate point. Deterministic: same inputs, same row.
func MeasureScaling(n int, cfg ScalingConfig) (ScalingPoint, error) {
	cfg = cfg.withDefaults()
	clocks := make([]*vtime.Clock, n)
	r, err := NewRouter(Config{
		Shards:   n,
		Replicas: cfg.Replicas,
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
	events := make([]*Event, cfg.Events)
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
	pt := ScalingPoint{Shards: n, Events: cfg.Events}
	for round := 0; round < cfg.Rounds; round++ {
		for _, e := range events {
			if _, err := e.Install(h); err != nil {
				return ScalingPoint{}, err
			}
			pt.Installs++
			for k := 0; k < cfg.RaisesPerInstall; k++ {
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
func MeasureScalingSweep(counts []int, cfg ScalingConfig) ([]ScalingPoint, error) {
	pts := make([]ScalingPoint, 0, len(counts))
	for _, n := range counts {
		pt, err := MeasureScaling(n, cfg)
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
