package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// host is what a reader needs to place the numbers.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Generators is how many goroutines generate load: every workload is a
	// closed loop of one.
	Generators int `json:"generator_goroutines"`
}

func hostFacts() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Generators: 1}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// reportMetric is one metric of the -all report.
type reportMetric struct {
	value
	Bound float64 `json:"bound,omitempty"`
}

type reportWorkload struct {
	Name        string  `json:"name"`
	Correct     bool    `json:"correct"`
	Attempted   int64   `json:"attempted"`
	Failed      int64   `json:"failed"`
	FailedRatio float64 `json:"failed_ratio"`
	// Samples is how many timed samples the percentiles rest on.
	Samples  uint64                  `json:"samples"`
	EndToEnd map[string]reportMetric `json:"end_to_end"`
	// Ungated are the end-to-end readings of the same pass that carry no
	// bound, because they are 0 somewhere or follow the host's load.
	Ungated  map[string]value `json:"end_to_end_ungated"`
	PerLayer map[string]value `json:"per_layer"`
}

// runAll runs every workload, the end-to-end pass and then the per-layer
// pass, and prints one report.
func runAll(seed uint64, lim limits, d time.Duration, traceDir string) error {
	report := struct {
		Host      host             `json:"host"`
		Clock     string           `json:"clock"`
		Seed      uint64           `json:"seed"`
		Workloads []reportWorkload `json:"workloads"`
	}{Host: hostFacts(), Clock: "native", Seed: seed}
	var bad []string
	for i := range workloads {
		w := &workloads[i]
		e2e, p, err := endToEndRun(w, seed, lim, d)
		if err != nil {
			return err
		}
		layers, err := perLayerRun(w, seed, d, traceDir)
		if err != nil {
			return err
		}
		rw := reportWorkload{Name: w.Name, Correct: e2e.Correct && layers.Correct,
			Attempted: e2e.Attempted, Failed: e2e.Failed,
			FailedRatio: float64(e2e.Failed) / float64(e2e.Attempted),
			Samples:     p.samples, EndToEnd: map[string]reportMetric{}, PerLayer: layers.Metrics,
			Ungated: map[string]value{
				"ops_per_s":     {p.opsPerSec, "op/s"},
				"lat_p50_ns":    {p.p50, "ns"},
				"lat_p99_ns":    {p.p99, "ns"},
				"allocs_per_op": {float64(p.rt.mallocs) / float64(p.ops), "count"},
				"bytes_per_op":  {float64(p.rt.bytes) / float64(p.ops), "B"},
				"peak_heap_mb":  {p.peakHeapMB, "MB"},
			}}
		for _, def := range endToEnd {
			rw.EndToEnd[def.Name] = reportMetric{e2e.Metrics[def.Name], def.Bound}
		}
		report.Workloads = append(report.Workloads, rw)
		for _, r := range []result{e2e, layers} {
			if err := r.err(); err != nil {
				bad = append(bad, w.Name+": "+err.Error())
			}
		}
	}
	if err := printJSON(report, true); err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "\n"))
	}
	return nil
}

// worseBy reports by what share of a the value b is worse.
func worseBy(def metricDef, a, b float64) float64 {
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck is the A/A test of the benchmark itself. On each of two seeds
// it runs the end-to-end pass twice on the same build: once for the given
// time, then for exactly the ops the first pass ran. It fails if an
// end-to-end metric differs by more than its own bound in either direction,
// or if any count differs at all.
func selfCheck(seed uint64, d time.Duration) error {
	h := hostFacts()
	if err := printJSON(h, true); err != nil {
		return err
	}
	if h.Generators > h.NProc {
		return fmt.Errorf("refusing to run %d generator goroutines on %d processors", h.Generators, h.NProc)
	}
	var bad []string
	for _, sd := range []uint64{seed, seed + 1} {
		for i := range workloads {
			w := &workloads[i]
			a, pa, err := endToEndRun(w, sd, timeLimits(d), d)
			if err != nil {
				return err
			}
			b, pb, err := endToEndRun(w, sd, pa.sameOps(), d)
			if err != nil {
				return err
			}
			for _, r := range []result{a, b} {
				if err := r.err(); err != nil {
					bad = append(bad, fmt.Sprintf("%s seed %d: %v", w.Name, sd, err))
				}
			}
			for _, def := range endToEnd {
				va, vb := a.Metrics[def.Name].Value, b.Metrics[def.Name].Value
				diff := math.Max(worseBy(def, va, vb), worseBy(def, vb, va))
				verdict := "ok"
				if diff > def.Bound {
					verdict = "DIFFERS"
					bad = append(bad, fmt.Sprintf("%s seed %d: %s read %g then %g, %.1f %% apart (bound %.0f %%)",
						w.Name, sd, def.Name, va, vb, 100*diff, 100*def.Bound))
				}
				fmt.Printf("%-13s seed %-3d %-13s %14.4f %14.4f %6.1f %% of %2.0f %%  %s\n",
					w.Name, sd, def.Name, va, vb, 100*diff, 100*def.Bound, verdict)
			}
			for _, d := range pa.counts.differ(&pb.counts, 0) {
				bad = append(bad, fmt.Sprintf("%s seed %d: %s", w.Name, sd, d))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("self-check failed:\n%s", strings.Join(bad, "\n"))
	}
	fmt.Println("self-check passed: every end-to-end metric within its bound, every count identical")
	return nil
}
