package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// smokeOps is each workload's op count at about 1/200 of a driver run.
var smokeOps = map[string]int64{
	"http_session": 800,
	"http_large":   500,
	"udp_fanin":    6000,
	"raise_hot":    900_000,
	"raise_heavy":  240_000,
	"ctl_churn":    90,
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkResult verifies the driver's result line: exactly the four keys, and
// one well-formed value per metric definition.
func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if err := res.err(); err != nil {
		t.Error(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("result line %s: %v", line, err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || *got.Attempted < 1 {
		t.Errorf("result line %s lacks a key or attempted nothing", line)
	}
	if len(got.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(got.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := got.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("metric %s missing or malformed in %s", d.Name, line)
		}
	}
}

// TestSmoke runs every workload at small scale: outputs are checked, the
// result has the contract's shape, and the counts repeat exactly. It makes
// no assertion about time.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			lim := opLimits(smokeOps[w.Name])
			a, pa, err := endToEndRun(w, 1, lim, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, a, endToEnd)
			for _, d := range endToEnd {
				if a.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %g, must never be 0", d.Name, a.Metrics[d.Name].Value)
				}
			}
			_, pb, err := endToEndRun(w, 1, lim, 0)
			if err != nil {
				t.Fatal(err)
			}
			if pa.ops != pb.ops {
				t.Errorf("two runs of one seed measured %d and %d ops", pa.ops, pb.ops)
			}
			for _, d := range pa.counts.differ(&pb.counts, 0) {
				t.Error("two runs of one seed: " + d)
			}
			layers, err := perLayerRun(w, 1, 150*time.Millisecond, "")
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, layers, perLayer())
			for _, shape := range append(append([]string{}, hotShapes...), heavyShapes...) {
				if layers.Metrics["dispatch.raise_ns."+shape].Value <= 0 {
					t.Errorf("no unit cost for raise shape %s", shape)
				}
			}
		})
	}
}

// TestManifest holds BENCHMARK.json to the tables in this package and to
// the limits of the driver's contract.
func TestManifest(t *testing.T) {
	m := theManifest()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	fresh, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fresh, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q malformed", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		name(d.Name)
	}
}

// TestHist checks the histogram's percentiles against exact ones.
func TestHist(t *testing.T) {
	var h hist
	const n = 100_000
	for i := 1; i <= n; i++ {
		h.add(int64(i) * 37)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 0.9999} {
		got, want := h.quantile(q), q*n*37
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%g) = %g, want %g within 1 %%", q, got, want)
		}
	}
	h.add(1 << 50) // clamped, not out of range
	if h.n != n+1 {
		t.Errorf("n = %d after %d adds", h.n, n+1)
	}
}
