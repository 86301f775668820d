package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"

	"spin/internal/bench"
	"spin/internal/codegen"
	"spin/internal/vtime"
)

// paperTables are the calibrated reproductions tablesCmd prints, in order.
// Every figure is clock: model — virtual time on the Alpha-calibrated cost
// model, in the paper's units (microseconds on a DEC Alpha AXP 3000/400) —
// so the output is byte-for-byte deterministic. Native (wall-clock) numbers
// belong to benchmark/ and the TestBenchSmoke* gates, never to this table.
var paperTables = []struct {
	name string
	run  func(w io.Writer) error
}{
	{"1", table1},
	{"2", table2},
	{"tree", table2Tree},
	{"install", installOverhead},
	{"async", asyncOverhead},
	{"micro", micro},
}

// tablesCmd regenerates the paper's microbenchmark tables from the
// virtual-time simulation; the paper's own numbers print alongside.
//
//	spin tables                 every table below
//	spin tables -table 1        Table 1: dispatch latency grid
//	spin tables -table 2        Table 2: UDP roundtrip vs. guards
//	spin tables -table tree     Table 2 through the guard index
//	spin tables -table install  §3.1 installation overhead
//	spin tables -table async    §3.1 asynchronous event overhead
//	spin tables -table micro    §3.1 syscall/thread event overhead
//	spin tables -disasm         dispatch plan disassembly tour
func tablesCmd(args []string, stdout, stderr io.Writer) error {
	names := make([]string, 0, len(paperTables)+1)
	for _, t := range paperTables {
		names = append(names, t.name)
	}
	names = append(names, "all")
	fs := newFlags("tables", stderr)
	table := fs.String("table", "all", "which table to regenerate: "+strings.Join(names, ", "))
	disasm := fs.Bool("disasm", false, "show dispatch plan disassembly for representative events")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *disasm {
		showDisasm(stdout)
		return nil
	}
	if !slices.Contains(names, *table) {
		fmt.Fprintf(stderr, "spin tables: unknown table %q (have: %s)\n", *table, strings.Join(names, ", "))
		return errUsage
	}
	for _, t := range paperTables {
		if *table != "all" && *table != t.name {
			continue
		}
		if err := t.run(stdout); err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
	}
	return nil
}

func table1(w io.Writer) error {
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

	fmt.Fprintln(w, "Table 1: event dispatch overhead (us); measured [paper]")
	fmt.Fprintf(w, "%-6s %-16s", "args", "procedure call")
	for _, h := range r.Handlers {
		fmt.Fprintf(w, " %-13s %-13s", fmt.Sprintf("%dh no-inline", h), fmt.Sprintf("%dh inline", h))
	}
	fmt.Fprintln(w)
	for _, a := range r.Args {
		fmt.Fprintf(w, "%-6d %5.2f [%4.2f]    ", a, r.ProcCall[a], paperProc[a])
		for _, h := range r.Handlers {
			k := [2]int{a, h}
			fmt.Fprintf(w, " %5.2f [%5.2f] %5.2f [%5.2f]",
				r.NoInline[k], paperNoInline[k], r.Inline[k], paperInline[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}

func table2(w io.Writer) error {
	fmt.Fprintln(w, "Table 2: UDP roundtrip vs. guards on the packet event (us); measured [paper]")
	paper := map[int]float64{1: 475, 5: 481, 10: 487, 50: 530}
	for _, guards := range []int{1, 5, 10, 50} {
		rt, err := bench.Table2Roundtrip(guards)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %2d guards: %6.1f [%4.0f]\n", guards, vtime.InMicros(rt), paper[guards])
	}
	fmt.Fprintln(w)
	return nil
}

func table2Tree(w io.Writer) error {
	fmt.Fprintln(w, "Table 2 under the guard decision tree (the paper's §3.2 future work):")
	fmt.Fprintln(w, "  inline ArgEq port guards through the guard index; out-of-line linear scan alongside")
	for _, guards := range []int{1, 5, 10, 50} {
		opt, err := bench.Table2RoundtripOptimized(guards)
		if err != nil {
			return err
		}
		lin, err := bench.Table2Roundtrip(guards)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %2d guards: tree %6.1f us | linear %6.1f us\n",
			guards, vtime.InMicros(opt), vtime.InMicros(lin))
	}
	fmt.Fprintln(w)
	return nil
}

func installOverhead(w io.Writer) error {
	first, total, err := bench.InstallOverhead(100)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Installation overhead (§3.1); measured [paper]")
	fmt.Fprintf(w, "  one handler:        %6.1f us [~150 us]\n", vtime.InMicros(first))
	fmt.Fprintf(w, "  100 on one event:   %6.1f ms [~30 ms] (O(n^2) total)\n",
		vtime.InMicros(total)/1000)
	fmt.Fprintln(w)
	return nil
}

func asyncOverhead(w io.Writer) error {
	fmt.Fprintln(w, "Asynchronous raise overhead (§3.1); paper band 38-90 us")
	for _, args := range []int{0, 1, 5} {
		d, err := bench.AsyncOverhead(args)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %d args: %5.1f us\n", args, vtime.InMicros(d))
	}
	fmt.Fprintln(w)
	return nil
}

func micro(w io.Writer) error {
	m, err := bench.Micro()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Event overhead on basic services (§3.1); paper band 10-15%")
	fmt.Fprintf(w, "  null syscall:   direct %6.2f us, evented %6.2f us -> %4.1f%%\n",
		vtime.InMicros(m.SyscallDirect), vtime.InMicros(m.SyscallEvented), m.SyscallOverheadPct())
	fmt.Fprintf(w, "  thread switch:  direct %6.2f us, evented %6.2f us -> %4.1f%%\n",
		vtime.InMicros(m.ThreadDirect), vtime.InMicros(m.ThreadEvented), m.ThreadOverheadPct())
	fmt.Fprintln(w)
	return nil
}

// showDisasm prints the generated dispatch plan for four representative
// configurations, the analog of dumping the runtime-generated stubs.
func showDisasm(w io.Writer) {
	var cell atomic.Uint64
	mk := func(bindings []*codegen.Binding, opts codegen.Options) {
		p := codegen.Compile(nil, 0, codegen.EventInfo{Name: "Demo.Event", Arity: 1},
			bindings, nil, nil, opts)
		fmt.Fprintln(w, p.Disassemble())
	}
	fmt.Fprintln(w, "-- intrinsic only: bypassed entirely --")
	mk([]*codegen.Binding{{Fn: func(any, []any) any { return nil }}}, codegen.Options{})
	fmt.Fprintln(w, "-- guarded handlers, fully inlined --")
	mk([]*codegen.Binding{
		{Guards: []codegen.Guard{{Pred: codegen.GlobalEq(&cell, 0)}}, Inline: codegen.Nop()},
		{Guards: []codegen.Guard{{Pred: codegen.ArgEq(0, 80)}}, Inline: codegen.AddWord(&cell, 1)},
	}, codegen.Options{})
	fmt.Fprintln(w, "-- mixed out-of-line with peephole dead-code elimination --")
	mk([]*codegen.Binding{
		{Guards: []codegen.Guard{{Pred: codegen.And(codegen.True(), codegen.ArgEq(0, 7))}},
			Fn: func(any, []any) any { return nil }},
		{Guards: []codegen.Guard{{Pred: codegen.False()}}, Fn: func(any, []any) any { return nil }},
		{Fn: func(any, []any) any { return nil }, Async: true},
	}, codegen.Options{})
	fmt.Fprintln(w, "-- port demultiplexer: a run of equality guards behind the guard index --")
	ports := []*codegen.Binding{{Inline: codegen.Nop()}}
	for _, port := range []uint64{53, 80, 123, 80, 443} {
		ports = append(ports, &codegen.Binding{
			Guards: []codegen.Guard{{Pred: codegen.ArgEq(0, port)}}, Inline: codegen.AddWord(&cell, 1)})
	}
	mk(ports, codegen.Options{})
}
