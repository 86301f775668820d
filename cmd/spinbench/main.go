// Command spinbench regenerates the microbenchmark tables of "Dynamic
// Binding for an Extensible System" (OSDI '96) from the virtual-time
// simulation:
//
//	spinbench -table 1        Table 1: dispatch latency grid
//	spinbench -table 2        Table 2: UDP roundtrip vs. guards
//	spinbench -table install  §3.1 installation overhead
//	spinbench -table async    §3.1 asynchronous event overhead
//	spinbench -table micro    §3.1 syscall/thread event overhead
//	spinbench -table faults   raise throughput under injected handler panics
//	spinbench -table overload throughput and shed rate vs. offered load
//	spinbench -table inline   specialization ablation on the inline plan
//	spinbench -table batch    batched raise ingress vs. single-raise loop
//	spinbench -table journal  lifecycle-journal raise overhead and group-commit latency
//	spinbench -table remote   two-machine remote raise drill (latency crossover, loss, partition)
//	spinbench -table shard    sharded-plane raise throughput scaling (1..8 shards)
//	spinbench -table all      everything
//	spinbench -disasm         dispatch plan disassembly tour
//
// All simulated figures are in the paper's units (microseconds on a DEC
// Alpha AXP 3000/400); the paper's own numbers print alongside.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spin/internal/admit"
	"spin/internal/bench"
	"spin/internal/codegen"
	"spin/internal/dispatch"
	"spin/internal/fault"
	"spin/internal/journal"
	"spin/internal/rtti"
	"spin/internal/scenario"
	"spin/internal/vtime"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1, 2, tree, install, async, micro, faults, overload, inline, batch, all")
	disasm := flag.Bool("disasm", false, "show dispatch plan disassembly for representative events")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of the formatted tables (seeds BENCH_dispatch.json)")
	flag.Parse()

	if *disasm {
		showDisasm()
		return
	}
	if *jsonOut {
		if err := emitJSON(os.Stdout, *table); err != nil {
			fmt.Fprintf(os.Stderr, "spinbench: json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	// Tables with the opt-in bit run only when named: "all" stays the
	// byte-for-byte deterministic virtual-time set.
	run := func(name string, fn func() error, optIn bool) {
		if *table != name && (optIn || *table != "all") {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "spinbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("1", table1, false)
	run("2", table2, false)
	run("tree", table2Tree, false)
	run("install", installOverhead, false)
	run("async", asyncOverhead, false)
	run("micro", micro, false)
	// faults, overload, inline and batch measure native (wall-clock) time;
	// journal does too and touches the filesystem (fsync latency).
	run("faults", faultsTable, true)
	run("overload", overloadTable, true)
	run("inline", inlineTable, true)
	run("batch", batchTable, true)
	run("journal", journalTable, true)
	// The remote drill is deterministic virtual time but exercises the
	// network substrate rather than the paper's dispatch tables.
	run("remote", remoteTable, true)
	// The shard scaling sweep is deterministic virtual time; the trailing
	// routed-vs-unrouted comparison is native.
	run("shard", shardTable, true)
}

// jsonReport is the -json output shape: the same virtual-time measurements
// the formatted tables print, keyed for machine consumption. It seeds the
// perf-trajectory file BENCH_dispatch.json.
type jsonReport struct {
	Schema string      `json:"schema"`
	Table1 *jsonTable1 `json:"table1,omitempty"`
	// Table2Us maps "guards=N" to the UDP roundtrip in microseconds.
	Table2Us map[string]float64 `json:"table2_us,omitempty"`
	Install  *jsonInstall       `json:"install,omitempty"`
	// AsyncUs maps "args=N" to the asynchronous raise overhead in
	// microseconds.
	AsyncUs map[string]float64 `json:"async_us,omitempty"`
	Micro   *jsonMicro         `json:"micro,omitempty"`
	Shard   *jsonShard         `json:"shard,omitempty"`
}

type jsonTable1 struct {
	// ProcCallUs maps "args=N" to the direct-call latency in microseconds.
	ProcCallUs map[string]float64 `json:"proc_call_us"`
	// NoInlineUs and InlineUs map "args=N/handlers=M" to dispatch latency
	// in microseconds.
	NoInlineUs map[string]float64 `json:"no_inline_us"`
	InlineUs   map[string]float64 `json:"inline_us"`
}

type jsonInstall struct {
	FirstUs    float64 `json:"first_us"`
	Total100Us float64 `json:"total_100_us"`
}

type jsonMicro struct {
	SyscallDirectUs    float64 `json:"syscall_direct_us"`
	SyscallEventedUs   float64 `json:"syscall_evented_us"`
	SyscallOverheadPct float64 `json:"syscall_overhead_pct"`
	ThreadDirectUs     float64 `json:"thread_direct_us"`
	ThreadEventedUs    float64 `json:"thread_evented_us"`
	ThreadOverheadPct  float64 `json:"thread_overhead_pct"`
}

// emitJSON regenerates the selected tables and encodes them as one JSON
// object on w.
func emitJSON(w *os.File, table string) error {
	want := func(name string) bool { return table == "all" || table == name }
	rep := jsonReport{Schema: "spinbench/v1"}

	if want("1") {
		r, err := bench.Table1()
		if err != nil {
			return err
		}
		t1 := &jsonTable1{
			ProcCallUs: map[string]float64{},
			NoInlineUs: map[string]float64{},
			InlineUs:   map[string]float64{},
		}
		for _, a := range r.Args {
			t1.ProcCallUs[fmt.Sprintf("args=%d", a)] = r.ProcCall[a]
			for _, h := range r.Handlers {
				key := fmt.Sprintf("args=%d/handlers=%d", a, h)
				t1.NoInlineUs[key] = r.NoInline[[2]int{a, h}]
				t1.InlineUs[key] = r.Inline[[2]int{a, h}]
			}
		}
		rep.Table1 = t1
	}
	if want("2") {
		rep.Table2Us = map[string]float64{}
		for _, guards := range []int{1, 5, 10, 50} {
			rt, err := bench.Table2Roundtrip(guards)
			if err != nil {
				return err
			}
			rep.Table2Us[fmt.Sprintf("guards=%d", guards)] = vtime.InMicros(rt)
		}
	}
	if want("install") {
		first, total, err := bench.InstallOverhead(100)
		if err != nil {
			return err
		}
		rep.Install = &jsonInstall{
			FirstUs:    vtime.InMicros(first),
			Total100Us: vtime.InMicros(total),
		}
	}
	if want("async") {
		rep.AsyncUs = map[string]float64{}
		for _, args := range []int{0, 1, 5} {
			d, err := bench.AsyncOverhead(args)
			if err != nil {
				return err
			}
			rep.AsyncUs[fmt.Sprintf("args=%d", args)] = vtime.InMicros(d)
		}
	}
	if want("micro") {
		m, err := bench.Micro()
		if err != nil {
			return err
		}
		rep.Micro = &jsonMicro{
			SyscallDirectUs:    vtime.InMicros(m.SyscallDirect),
			SyscallEventedUs:   vtime.InMicros(m.SyscallEvented),
			SyscallOverheadPct: m.SyscallOverheadPct(),
			ThreadDirectUs:     vtime.InMicros(m.ThreadDirect),
			ThreadEventedUs:    vtime.InMicros(m.ThreadEvented),
			ThreadOverheadPct:  m.ThreadOverheadPct(),
		}
	}
	// Like the remote drill, the shard table is opt-in rather than part
	// of "all": deterministic, but not one of the paper's tables.
	if table == "shard" {
		s, err := shardJSON()
		if err != nil {
			return err
		}
		rep.Shard = s
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func table1() error {
	r, err := bench.Table1()
	if err != nil {
		return err
	}
	paperNoInline := map[[2]int]float64{
		{0, 1}: 0.37, {0, 5}: 1.18, {0, 10}: 2.15, {0, 50}: 11.69,
		{1, 1}: 0.39, {1, 5}: 1.25, {1, 10}: 2.32, {1, 50}: 11.51,
		{5, 1}: 0.97, {5, 5}: 1.61, {5, 10}: 2.88, {5, 50}: 14.45,
	}
	paperInline := map[[2]int]float64{
		{0, 1}: 0.23, {0, 5}: 0.41, {0, 10}: 0.63, {0, 50}: 2.48,
		{1, 1}: 0.24, {1, 5}: 0.45, {1, 10}: 0.72, {1, 50}: 2.87,
		{5, 1}: 0.42, {5, 5}: 1.55, {5, 10}: 1.32, {5, 50}: 5.65,
	}
	paperProc := map[int]float64{0: 0.10, 1: 0.13, 5: 0.14}

	fmt.Println("Table 1: event dispatch overhead (us); measured [paper]")
	fmt.Printf("%-6s %-16s", "args", "procedure call")
	for _, h := range r.Handlers {
		fmt.Printf(" %-13s %-13s", fmt.Sprintf("%dh no-inline", h), fmt.Sprintf("%dh inline", h))
	}
	fmt.Println()
	for _, a := range r.Args {
		fmt.Printf("%-6d %5.2f [%4.2f]    ", a, r.ProcCall[a], paperProc[a])
		for _, h := range r.Handlers {
			k := [2]int{a, h}
			fmt.Printf(" %5.2f [%5.2f] %5.2f [%5.2f]",
				r.NoInline[k], paperNoInline[k], r.Inline[k], paperInline[k])
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func table2() error {
	fmt.Println("Table 2: UDP roundtrip vs. guards on the packet event (us); measured [paper]")
	paper := map[int]float64{1: 475, 5: 481, 10: 487, 50: 530}
	for _, guards := range []int{1, 5, 10, 50} {
		rt, err := bench.Table2Roundtrip(guards)
		if err != nil {
			return err
		}
		fmt.Printf("  %2d guards: %6.1f [%4.0f]\n", guards, vtime.InMicros(rt), paper[guards])
	}
	fmt.Println()
	return nil
}

func table2Tree() error {
	fmt.Println("Table 2 under the guard decision tree (the paper's §3.2 future work):")
	fmt.Println("  inline ArgEq port guards + codegen.EnableDecisionTree; linear scan alongside")
	for _, guards := range []int{1, 5, 10, 50} {
		opt, err := bench.Table2RoundtripOptimized(guards)
		if err != nil {
			return err
		}
		lin, err := bench.Table2Roundtrip(guards)
		if err != nil {
			return err
		}
		fmt.Printf("  %2d guards: tree %6.1f us | linear %6.1f us\n",
			guards, vtime.InMicros(opt), vtime.InMicros(lin))
	}
	fmt.Println()
	return nil
}

func installOverhead() error {
	first, total, err := bench.InstallOverhead(100)
	if err != nil {
		return err
	}
	fmt.Println("Installation overhead (§3.1); measured [paper]")
	fmt.Printf("  one handler:        %6.1f us [~150 us]\n", vtime.InMicros(first))
	fmt.Printf("  100 on one event:   %6.1f ms [~30 ms] (O(n^2) total)\n",
		vtime.InMicros(total)/1000)
	fmt.Println()
	return nil
}

func asyncOverhead() error {
	fmt.Println("Asynchronous raise overhead (§3.1); paper band 38-90 us")
	for _, args := range []int{0, 1, 5} {
		d, err := bench.AsyncOverhead(args)
		if err != nil {
			return err
		}
		fmt.Printf("  %d args: %5.1f us\n", args, vtime.InMicros(d))
	}
	fmt.Println()
	return nil
}

func micro() error {
	m, err := bench.Micro()
	if err != nil {
		return err
	}
	fmt.Println("Event overhead on basic services (§3.1); paper band 10-15%")
	fmt.Printf("  null syscall:   direct %6.2f us, evented %6.2f us -> %4.1f%%\n",
		vtime.InMicros(m.SyscallDirect), vtime.InMicros(m.SyscallEvented), m.SyscallOverheadPct())
	fmt.Printf("  thread switch:  direct %6.2f us, evented %6.2f us -> %4.1f%%\n",
		vtime.InMicros(m.ThreadDirect), vtime.InMicros(m.ThreadEvented), m.ThreadOverheadPct())
	fmt.Println()
	return nil
}

// faultsTable measures native raise throughput with the fault-isolation
// subsystem active while a deterministic injector panics in the handler at
// a fixed rate. The budget is unreachable, so the binding is never
// quarantined: the scenario isolates the per-raise cost of protection
// (recovery barriers in the plan) and of recording a fault when one fires.
// The zero-rate row is the acceptance bound — it must stay within noise of
// the unprotected fast path, with 0 allocs/raise.
func faultsTable() error {
	fmt.Println("Raise throughput under injected handler panics (native time, 1 word arg)")
	sig := rtti.Sig(nil, rtti.Word)
	mod := rtti.NewModule("Bench")
	measure := func(label string, withPolicy bool, every uint64) error {
		var opts []dispatch.Option
		if withPolicy {
			opts = append(opts, dispatch.WithFaultPolicy(fault.Policy{
				Budget: 1 << 30, ProbationBudget: 1 << 30,
				Backoff: time.Hour, History: 16,
			}))
		}
		d := dispatch.New(opts...)
		impl := func(any, []any) any { return nil }
		if every > 0 {
			impl = fault.NewInjector().PanicEvery("bench", every, 0).Handler("bench", impl)
		}
		ev, err := d.DefineEvent("Bench.Faults", sig, dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Bench.H", Module: mod, Sig: sig},
			Fn:   impl,
		}))
		if err != nil {
			return err
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Raise1(uint64(7)); err != nil {
					b.Fatal(err)
				}
			}
		})
		faults := ""
		if withPolicy {
			faults = fmt.Sprintf("  (%d faults recorded)", d.FaultLedger().Total())
		}
		fmt.Printf("  %-22s %7.1f ns/op  %d allocs/op%s\n",
			label, float64(res.T.Nanoseconds())/float64(res.N), res.AllocsPerOp(), faults)
		return nil
	}
	if err := measure("policy off", false, 0); err != nil {
		return err
	}
	if err := measure("policy on, 0% faults", true, 0); err != nil {
		return err
	}
	if err := measure("policy on, 0.1% faults", true, 1000); err != nil {
		return err
	}
	if err := measure("policy on, 1% faults", true, 100); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// inlineTable is the Table-1-style ablation for plan specialization
// (DESIGN.md decision 15), measured in native time on the inline-plan
// shape (five guarded inline handlers, one word argument): the general
// executor against the shape-specialized stencil, with the single-handler
// bypass alongside as the floor the specialized plan is chasing.
func inlineTable() error {
	fmt.Println("Plan-specialization ablation on the inline plan (native time, 5 inline handlers, 1 word arg)")
	sig := rtti.Sig(nil, rtti.Word)
	mod := rtti.NewModule("Bench")
	var bypassNs, specNs float64
	measure := func(label string, opts codegen.Options, bypass bool) (float64, error) {
		d := dispatch.New(dispatch.WithCodegenOptions(opts))
		var ev *dispatch.Event
		var err error
		if bypass {
			ev, err = d.DefineEvent("Bench.Inline", sig, dispatch.WithIntrinsic(dispatch.Handler{
				Proc: &rtti.Proc{Name: "Bench.H", Module: mod, Sig: sig},
				Fn:   func(any, []any) any { return nil },
			}))
		} else {
			ev, err = d.DefineEvent("Bench.Inline", sig)
		}
		if err != nil {
			return 0, err
		}
		if !bypass {
			var cell atomic.Uint64
			for i := 0; i < 5; i++ {
				_, err := ev.Install(dispatch.Handler{
					Proc:   &rtti.Proc{Name: "Bench.H", Module: mod, Sig: sig},
					Inline: codegen.Nop(),
				}, dispatch.WithGuard(dispatch.Guard{Pred: codegen.GlobalEq(&cell, 0)}))
				if err != nil {
					return 0, err
				}
			}
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Raise1(uint64(7)); err != nil {
					b.Fatal(err)
				}
			}
		})
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		fmt.Printf("  %-28s %7.1f ns/op  %d allocs/op\n", label, ns, res.AllocsPerOp())
		return ns, nil
	}
	var err error
	if bypassNs, err = measure("bypass (1 unguarded)", codegen.Options{}, true); err != nil {
		return err
	}
	noBypass := codegen.Options{DisableBypass: true}
	if _, err = measure("general executor", codegen.Options{DisableBypass: true, DisableSpecialize: true}, false); err != nil {
		return err
	}
	if specNs, err = measure("shape-specialized", noBypass, false); err != nil {
		return err
	}
	if bypassNs > 0 {
		fmt.Printf("  specialized/bypass ratio: %.2fx (acceptance bound 2.00x)\n", specNs/bypassNs)
	}
	fmt.Println()
	return nil
}

// batchTable measures the batched raise ingress against a loop of single
// raises (native time) on the two plan shapes the batch tier specializes:
// the single-binding bypass (where the per-raise fixed costs dominate, so
// amortization shows its full effect) and the five-guard inline plan
// (where guard-walk work per frame bounds the win). Each row offers the
// same raises, singly and as RaiseBatch1 trains of 1, 8, and 64 frames.
func batchTable() error {
	fmt.Println("Batched raise ingress vs. single-raise loop (native time, 1 word arg)")
	sig := rtti.Sig(nil, rtti.Word)
	mod := rtti.NewModule("Bench")
	shape := func(label string, mk func() (*dispatch.Event, error)) error {
		ev, err := mk()
		if err != nil {
			return err
		}
		single := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Raise1(uint64(7)); err != nil {
					b.Fatal(err)
				}
			}
		})
		singleNs := float64(single.T.Nanoseconds()) / float64(single.N)
		fmt.Printf("  %-12s single        %7.1f ns/raise  %9.0f raises/s  %d allocs/op\n",
			label, singleNs, 1e9/singleNs, single.AllocsPerOp())
		for _, n := range []int{1, 8, 64} {
			flat := make([]any, n)
			for i := range flat {
				flat[i] = uint64(7)
			}
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i += n {
					if out := ev.RaiseBatch1(flat); out.Raised != n {
						b.Fatalf("batch outcome: %+v", out)
					}
				}
			})
			ns := float64(res.T.Nanoseconds()) / float64(res.N) // per frame: b.N counts frames
			fmt.Printf("  %-12s batch n=%-4d  %7.1f ns/raise  %9.0f raises/s  %d allocs/op  (%.2fx single)\n",
				label, n, ns, 1e9/ns, res.AllocsPerOp(), singleNs/ns)
		}
		return nil
	}
	if err := shape("bypass", func() (*dispatch.Event, error) {
		d := dispatch.New()
		return d.DefineEvent("Bench.Batch", sig, dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Bench.H", Module: mod, Sig: sig},
			Fn:   func(any, []any) any { return nil },
		}))
	}); err != nil {
		return err
	}
	if err := shape("inline-plan", func() (*dispatch.Event, error) {
		d := dispatch.New(dispatch.WithCodegenOptions(codegen.Options{DisableBypass: true}))
		ev, err := d.DefineEvent("Bench.Batch", sig)
		if err != nil {
			return nil, err
		}
		var cell atomic.Uint64
		for i := 0; i < 5; i++ {
			if _, err := ev.Install(dispatch.Handler{
				Proc:   &rtti.Proc{Name: "Bench.H", Module: mod, Sig: sig},
				Inline: codegen.Nop(),
			}, dispatch.WithGuard(dispatch.Guard{Pred: codegen.GlobalEq(&cell, 0)})); err != nil {
				return nil, err
			}
		}
		return ev, nil
	}); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// journalTable measures what the lifecycle journal costs the raise fast
// path (native time, bypass shape, one word arg) at each sampling rate,
// and what a group commit costs at each batch size. The journal-off row
// is the acceptance bound: the plan carries no journal field, so it must
// match the bare dispatcher within noise at 0 allocs/op. Sampling rows
// use a MemSink so they price the dispatcher-side draw + enqueue, not
// the disk. The flush sweep uses a FileSink (fsync per seal) so the
// batch-size trade-off — durability window vs. per-record cost — is the
// one an operator actually faces.
func journalTable() error {
	fmt.Println("Journaled raise overhead by sampling rate (native time, bypass shape, 1 word arg, MemSink)")
	sig := rtti.Sig(nil, rtti.Word)
	mod := rtti.NewModule("Bench")
	var offNs float64
	measure := func(label string, sample int) (float64, error) {
		var opts []dispatch.Option
		var j *journal.Journal
		if sample >= 0 {
			j = journal.New(journal.Config{
				Sink:         journal.NewMemSink(),
				SampleRaises: sample,
				// Size-triggered seals only: the timer would add
				// scheduler noise to the measurement.
				FlushInterval: -1,
			})
			defer j.Close()
			opts = append(opts, dispatch.WithJournal(j))
		}
		d := dispatch.New(opts...)
		ev, err := d.DefineEvent("Bench.Journal", sig, dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Bench.H", Module: mod, Sig: sig},
			Fn:   func(any, []any) any { return nil },
		}))
		if err != nil {
			return 0, err
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Raise1(uint64(7)); err != nil {
					b.Fatal(err)
				}
			}
		})
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		trail := ""
		if j != nil {
			s := j.Stats()
			trail = fmt.Sprintf("  (%d sampled, %d shed)", s.Submitted, s.DroppedRaises)
		}
		fmt.Printf("  %-18s %7.1f ns/op  %d allocs/op%s\n", label, ns, res.AllocsPerOp(), trail)
		return ns, nil
	}
	var err error
	if offNs, err = measure("journal off", -1); err != nil {
		return err
	}
	for _, s := range []struct {
		label  string
		sample int
	}{{"sampled 1/1024", 1024}, {"sampled 1/64", 64}, {"sampled 1/1", 1}} {
		ns, err := measure(s.label, s.sample)
		if err != nil {
			return err
		}
		if s.sample == 1024 && offNs > 0 {
			fmt.Printf("  1/1024 delta vs off: %+.1f%% (acceptance bound +5%%)\n", 100*(ns-offNs)/offNs)
		}
	}

	fmt.Println()
	fmt.Println("Group-commit cost vs batch size (FileSink, fsync per seal, lifecycle records)")
	dir, err := os.MkdirTemp("", "spinbench-journal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const total = 1 << 12
	for _, batch := range []int{8, 64, 512} {
		sink, err := journal.OpenFileSink(fmt.Sprintf("%s/b%d.sj", dir, batch))
		if err != nil {
			return err
		}
		j := journal.New(journal.Config{
			Sink:          sink,
			BatchRecords:  batch,
			BatchBytes:    1 << 30, // record-count trigger only
			FlushInterval: -1,
		})
		rec := journal.Record{Kind: journal.KindInstall, ID: 1,
			Event: "Bench.Journal", Module: "Bench", Handler: "Bench.H"}
		start := time.Now()
		for i := 0; i < total; i++ {
			j.Record(rec)
		}
		if err := j.Close(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		s := j.Stats()
		perRec := float64(elapsed.Nanoseconds()) / total
		perSeal := float64(elapsed.Microseconds()) / float64(s.Batches)
		fmt.Printf("  batch=%-4d %4d seals  %7.0f ns/record  %8.1f us/commit  %6.1f KiB\n",
			batch, s.Batches, perRec, perSeal, float64(s.Bytes)/1024)
	}
	fmt.Println()
	return nil
}

// showDisasm prints the generated dispatch plan for four representative
// configurations, the analog of dumping the runtime-generated stubs.
func showDisasm() {
	var cell atomic.Uint64
	mk := func(bindings []*codegen.Binding, opts codegen.Options) {
		p := codegen.Compile(codegen.EventInfo{Name: "Demo.Event", Arity: 1},
			bindings, nil, nil, opts)
		fmt.Println(p.Disassemble())
	}
	fmt.Println("-- intrinsic only: bypassed entirely --")
	mk([]*codegen.Binding{{Fn: func(any, []any) any { return nil }}}, codegen.Options{})
	fmt.Println("-- guarded handlers, fully inlined --")
	mk([]*codegen.Binding{
		{Guards: []codegen.Guard{{Pred: codegen.GlobalEq(&cell, 0)}}, Inline: codegen.Nop()},
		{Guards: []codegen.Guard{{Pred: codegen.ArgEq(0, 80)}}, Inline: codegen.AddWord(&cell, 1)},
	}, codegen.Options{})
	fmt.Println("-- mixed out-of-line with peephole dead-code elimination --")
	mk([]*codegen.Binding{
		{Guards: []codegen.Guard{{Pred: codegen.And(codegen.True(), codegen.ArgEq(0, 7))}},
			Fn: func(any, []any) any { return nil }},
		{Guards: []codegen.Guard{{Pred: codegen.False()}}, Fn: func(any, []any) any { return nil }},
		{Fn: func(any, []any) any { return nil }, Async: true},
	}, codegen.Options{})
	fmt.Println("-- port demultiplexer: a run of equality guards behind the guard index --")
	ports := []*codegen.Binding{{Inline: codegen.Nop()}}
	for _, port := range []uint64{53, 80, 123, 80, 443} {
		ports = append(ports, &codegen.Binding{
			Guards: []codegen.Guard{{Pred: codegen.ArgEq(0, port)}}, Inline: codegen.AddWord(&cell, 1)})
	}
	mk(ports, codegen.Options{})
}

// overloadTable measures asynchronous raise behaviour as offered load
// climbs past the drain capacity of the admission worker pool (native
// time). The pool's real capacity is calibrated first — a saturating flood
// measures what the host actually drains, so the 1x/4x/16x multiples are
// honest on any core count — then producers pace an open load at each
// multiple. At 1x the shed rate should be low; at 16x the Shed policy
// keeps goroutines bounded and rejects the excess instead of queueing
// without bound.
func overloadTable() error {
	const (
		workers   = 4
		service   = 200 * time.Microsecond
		duration  = 300 * time.Millisecond
		producers = 8
	)
	runPoint := func(offered float64, dur time.Duration) (admit.QueueStats, float64, error) {
		pol := admit.Policy{Mode: admit.Shed, Depth: 64}
		d := dispatch.New(dispatch.WithAdmission(dispatch.AdmissionConfig{
			Workers: workers, Default: &pol,
		}))
		sig := rtti.Sig(nil, rtti.Word)
		ev, err := d.DefineEvent("Bench.Overload", sig,
			dispatch.AsAsync(),
			dispatch.WithIntrinsic(dispatch.Handler{
				Proc: &rtti.Proc{Name: "Bench.H", Module: rtti.NewModule("Bench"), Sig: sig},
				Fn: func(any, []any) any {
					// Busy-wait: time.Sleep rounds 200us up to ~1ms on
					// stock kernels, which would understate capacity.
					end := time.Now().Add(service)
					for time.Now().Before(end) {
					}
					return nil
				},
			}))
		if err != nil {
			return admit.QueueStats{}, 0, err
		}
		// offered <= 0 floods (calibration); the queue settles before the
		// ledger is read.
		start := time.Now()
		scenario.Offer(ev, offered, dur, producers)
		return scenario.AwaitDrained(ev.AdmissionQueue()), time.Since(start).Seconds(), nil
	}

	cal, calSecs, err := runPoint(0, 150*time.Millisecond)
	if err != nil {
		return err
	}
	capacity := float64(cal.Completed) / calSecs
	fmt.Printf("Async raise under offered load (native time, Shed policy, %d workers, %v busy service, GOMAXPROCS=%d)\n",
		workers, service, runtime.GOMAXPROCS(0))
	fmt.Printf("  calibrated drain capacity: %7.0f raises/s\n", capacity)
	for _, mult := range []int{1, 4, 16} {
		s, secs, err := runPoint(capacity*float64(mult), duration)
		if err != nil {
			return err
		}
		shedPct := 0.0
		if s.Submitted > 0 {
			shedPct = 100 * float64(s.Shed) / float64(s.Submitted)
		}
		fmt.Printf("  %2dx offered (%7.0f/s): submitted %6d  served %7.0f/s  shed %5.1f%%  max depth %3d\n",
			mult, capacity*float64(mult), s.Submitted, float64(s.Completed)/secs, shedPct, s.MaxDepth)
	}
	fmt.Println()
	return nil
}
