// Command benchmark is the repository's one measurement spine: six fixed
// workloads run natively (wall clock, unmetered dispatchers) across
// netwire → netstack → dispatch → httpd → fs, every output checked, every
// end-to-end metric printed by name and unit, and a second, traced pass that
// attributes the time to layers. See README.md for the definitions.
//
// The driver's form prints one JSON object as the last line:
//
//	bash benchmark/run.sh --workload udp_fanin --seed 7 --seconds 10 --trace 0
//
// and -all, -selfcheck and -manifest serve a person at the keyboard.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// runner is one built workload, good for one pass.
type runner interface {
	// run drives ops until the recorder is done.
	run(rec *recorder) error
	// counts adds the program's public counters as they stand.
	counts(c *counts)
	// check makes the verifications that need the whole run, after it.
	check() []string
	// close stops what the build started; a runner may be closed unrun.
	close()
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// simulated workloads cross the two-machine rig and have a traced pass.
	simulated bool
	// build makes the workload's inputs and rig from the seed. It returns
	// how many ops one sample covers. A build that takes longer than about
	// a millisecond calls l.lap between its steps.
	build func(seed uint64, tr *tracer, l *laps) (runner, int64, error)
}

func simulated(build func(uint64, *tracer) (*simRun, error)) func(uint64, *tracer, *laps) (runner, int64, error) {
	return func(seed uint64, tr *tracer, _ *laps) (runner, int64, error) {
		s, err := build(seed, tr)
		return s, 1, err
	}
}

func schedule(build func(uint64) (*raiseRun, error)) func(uint64, *tracer, *laps) (runner, int64, error) {
	return func(seed uint64, _ *tracer, _ *laps) (runner, int64, error) {
		r, err := build(seed)
		if err != nil {
			return nil, 0, err
		}
		return r, r.raisesPerRound(), nil
	}
}

var workloads = []workload{
	{Name: "http_session", simulated: true, build: simulated(newHTTPSession),
		Why: "Headline request path with connection churn: dial, four GETs through the webserver extension population, close. Crosses every layer per request; dispatch predicted a small share (paper 3.2)."},
	{Name: "http_large", simulated: true, build: simulated(newHTTPLarge),
		Why: "Bulk path: keep-alive GET of 16 KiB in 12 ACKed segments. Segmentation, wire, simulator heap and copies dominate. Bypass workload for raise-path work, target for netstack/httpd allocation work."},
	{Name: "udp_fanin", simulated: true, build: func(seed uint64, tr *tracer, l *laps) (runner, int64, error) {
		s, err := newUDPFanin(seed, tr, l)
		return s, 1, err
	},
		Why: "Smallest packet, dispatch-dominated: 8-byte UDP echo (paper Table 2) past 256 inactive sockets' inline port guards per machine. Shows guard indexing and the batch-at-n=1 tax."},
	{Name: "raise_hot", build: schedule(newRaiseHot),
		Why: "The already-fast tiers on a bare dispatcher (bypass0, bypass2, typed2, inline5, batch64). Gates 'costs nothing when off'; bypass0 is the one canonical serial bypass raise."},
	{Name: "raise_heavy", build: schedule(newRaiseHeavy),
		Why: "The shapes an executor collapse and guard indexing target: ten closure guards, 50-way equality fan-in, three-result fold, rewriting filter (off the flat tier today)."},
	{Name: "ctl_churn", build: func(seed uint64, _ *tracer, _ *laps) (runner, int64, error) {
		c, err := newCtlChurn(seed)
		return c, 1, err
	}, Why: "Writes beside reads on the hardened configuration (fault policy, journal): install, 128 raises, uninstall, 128 raises. A raise gain bought with a slower plan compile or swap shows only here."},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// pass is what one pass over a workload measured.
type pass struct {
	timing
	warmOps           int64
	attempted, failed int64
	counts            counts
	rt                runtimeCounts
	problems          []string
}

// sameOps bounds a pass to exactly the ops p ran, so the two can be
// compared count for count.
func (p *pass) sameOps() limits { return limits{warmOps: p.warmOps, measureOps: p.ops} }

func runPass(w *workload, seed uint64, lim limits, tr *tracer) (*pass, error) {
	r, perSample, err := w.build(seed, tr, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	rec := newRecorder(lim, perSample)
	rec.sampleHeap = tr == nil
	p := &pass{}
	var c0 counts
	var rt0 runtimeCounts
	rec.atStart = func() {
		r.counts(&c0)
		rt0 = readRuntime()
		if tr != nil {
			base := rec.attempted
			tr.opID = func() int64 { return (rec.attempted - base) / perSample }
			tr.measuring = true
		}
	}
	rec.atEnd = func() {
		if tr != nil {
			tr.measuring = false
		}
		p.rt = readRuntime().sub(rt0)
		r.counts(&p.counts)
		p.counts.sub(&c0)
	}
	runtime.GC() // every pass starts from a collected heap
	if err := r.run(rec); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	p.timing = rec.timing()
	p.warmOps, p.attempted, p.failed = rec.warmOps, rec.attempted, rec.failed
	p.problems = r.check()
	r.close()
	return p, nil
}

// laps times the steps of one build. Interference on a shared host blends
// into anything that runs for milliseconds, while a step of tens of
// microseconds often runs undisturbed; so a long build is timed step by
// step. A nil *laps does nothing.
type laps struct {
	last  time.Time
	steps []float64
}

func (l *laps) lap() {
	if l == nil {
		return
	}
	now := time.Now()
	l.steps = append(l.steps, now.Sub(l.last).Seconds())
	l.last = now
}

// setupTimer estimates the time to build a workload's inputs and rig as the
// sum, over the build's steps, of the fastest time each step took in any of
// the builds: interference only ever adds time. A build that calls no lap is
// one step, and the estimate is the fastest build.
type setupTimer struct {
	fastest []float64
}

// run builds the workload over and over for the budget, at least three
// times.
func (t *setupTimer) run(w *workload, seed uint64, budget time.Duration) error {
	for begin, n := time.Now(), 0; n < 3 || time.Since(begin) < budget; n++ {
		l := &laps{last: time.Now()}
		r, _, err := w.build(seed, nil, l)
		l.lap()
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		r.close()
		if t.fastest == nil {
			t.fastest = l.steps
		}
		if len(l.steps) != len(t.fastest) {
			return fmt.Errorf("%s: set-up took %d steps, then %d", w.Name, len(t.fastest), len(l.steps))
		}
		for i, d := range l.steps {
			t.fastest[i] = min(t.fastest[i], d)
		}
	}
	return nil
}

func (t *setupTimer) seconds() float64 {
	var sum float64
	for _, d := range t.fastest {
		sum += d
	}
	return sum
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's contract: the last line of standard output, with
// exactly these keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// problems names what made Correct false; it goes to standard error.
	problems []string
}

// result pairs the metric definitions with their values.
func (p *pass) result(defs []metricDef, vals map[string]float64, more ...string) result {
	problems := append(append([]string{}, p.problems...), more...)
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	return result{
		Correct:   p.failed == 0 && len(problems) == 0,
		Attempted: p.attempted, Failed: p.failed,
		Metrics: metrics, problems: problems,
	}
}

// endToEndRun is the driver's --trace 0: one untraced pass of the given
// length, with the set-up timed before and after it. Two windows, seconds
// apart, make it likelier that every step ran undisturbed once. Each
// window lasts an eighth of d.
func endToEndRun(w *workload, seed uint64, lim limits, d time.Duration) (result, *pass, error) {
	budget := d / 8
	var setup setupTimer
	if err := setup.run(w, seed, budget); err != nil {
		return result{}, nil, err
	}
	p, err := runPass(w, seed, lim, nil)
	if err != nil {
		return result{}, nil, err
	}
	if err := setup.run(w, seed, budget); err != nil {
		return result{}, nil, err
	}
	return p.result(endToEnd, map[string]float64{
		"lat_p05_ns": p.p05,
		"setup_s":    setup.seconds(),
	}), p, nil
}

// perLayerRun is the driver's --trace 1. The time goes in thirds: the unit
// costs, an untraced pass, and on the simulated workloads a traced pass of
// exactly the same ops.
func perLayerRun(w *workload, seed uint64, d time.Duration, traceDir string) (result, error) {
	vals, err := unitCosts(seed, d/3)
	if err != nil {
		return result{}, err
	}
	p, err := runPass(w, seed, timeLimits(d/3), nil)
	if err != nil {
		return result{}, err
	}
	ops := float64(p.ops)
	for i, m := range countMetrics {
		vals[m.name] = float64(p.counts[i])
		if !m.total {
			vals[m.name] /= ops
		}
	}
	vals["vtime.virt_us_per_op"] /= 1e3
	vals["runtime.allocs_per_op"] = float64(p.rt.mallocs) / ops
	vals["runtime.bytes_per_op"] = float64(p.rt.bytes) / ops
	vals["runtime.gc_cycles"] = float64(p.rt.gcCycles)
	vals["runtime.gc_pause_ns_per_op"] = float64(p.rt.gcPauseNs) / ops
	vals["runtime.peak_heap_mb"] = p.peakHeapMB
	vals["e2e.ops_per_s"] = p.opsPerSec
	vals["e2e.lat_p50_ns"] = p.p50
	vals["e2e.lat_p99_ns"] = p.p99
	vals["e2e.lat_tail10_ns"] = p.tail
	meanNs := float64(p.elapsedNs) / ops
	if !w.simulated {
		// Nothing but the generator's own loop sits between it and dispatch.
		vals[spanLayerNames[layerClient]] = meanNs
		return p.result(perLayer(), vals), nil
	}

	tr := newTracer(traceDir != "")
	tp, err := runPass(w, seed, p.sameOps(), tr)
	if err != nil {
		return result{}, err
	}
	// The probes' own fires are the only count the traced pass may add.
	problems := p.counts.differ(&tp.counts, tr.fires)
	var attributed int64
	for i, name := range spanLayerNames {
		vals[name] = float64(tr.self[i]) / ops
		attributed += tr.self[i]
	}
	for i, name := range callNames {
		vals[name] = float64(tr.calls[i]) / ops
	}
	// Compared on the statistic that the host's load moves least.
	vals["trace.overhead_ratio"] = tp.p05/p.p05 - 1
	unattributed := float64(attributed)/float64(tp.elapsedNs) - 1
	vals["trace.unattributed_ratio"] = unattributed
	if unattributed < -0.03 || unattributed > 0.03 {
		problems = append(problems, fmt.Sprintf("span self times sum to %+.1f %% of the traced pass", 100*unattributed))
	}
	if traceDir != "" {
		path, err := tr.writeChrome(traceDir, w.Name)
		if err != nil {
			return result{}, fmt.Errorf("trace file: %w", err)
		}
		fmt.Fprintln(os.Stderr, "trace written to", path)
	}
	res := p.result(perLayer(), vals, append(tp.problems, problems...)...)
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	res.Correct = res.Correct && tp.failed == 0
	return res, nil
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func theManifest() manifest {
	return manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 10,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
}

func printJSON(v any, indent bool) error {
	enc := json.NewEncoder(os.Stdout)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}

// err reports a result whose outputs were not all correct.
func (r result) err() error {
	if r.Correct {
		return nil
	}
	return fmt.Errorf("%d of %d ops failed their output check; %s", r.Failed, r.Attempted, strings.Join(r.problems, "; "))
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print the driver's result line")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 10, "length of the measured window")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
		ops       = flag.Int64("ops", 0, "measure exactly this many ops instead of -seconds (end-to-end pass only)")
		all       = flag.Bool("all", false, "run every workload, both passes, and print one report")
		selfcheck = flag.Bool("selfcheck", false, "A/A: run the untraced pass twice on two seeds and compare")
		out       = flag.String("out", "", "directory for the traced pass's Chrome trace_event files (none when empty)")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()
	d := time.Duration(*seconds * float64(time.Second))
	lim := timeLimits(d)
	if *ops > 0 {
		lim = opLimits(*ops)
	}
	err := func() error {
		switch {
		case *printMan:
			return printJSON(theManifest(), true)
		case *selfcheck:
			return selfCheck(*seed, d)
		case *all:
			return runAll(*seed, lim, d, *out)
		}
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q (use -all, or one of the names in BENCHMARK.json)", *name)
		}
		var res result
		var err error
		if *trace == 0 {
			res, _, err = endToEndRun(w, *seed, lim, d)
		} else {
			res, err = perLayerRun(w, *seed, d, *out)
		}
		if err != nil {
			return err
		}
		if err := printJSON(res, false); err != nil {
			return err
		}
		return res.err()
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
