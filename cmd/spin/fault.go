package main

import (
	"fmt"
	"io"
	"time"

	"spin/internal/dispatch"
	"spin/internal/fault"
	"spin/internal/httpd"
	"spin/internal/kernel"
	"spin/internal/rtti"
	"spin/internal/scenario"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// faultCmd replays the webserver scenario under deterministic fault
// injection and prints the quarantine ledger: a flaky cache extension
// panics on a fixed cadence, exhausts its fault budget, is quarantined out
// of the Httpd.Request dispatch plan, and is later re-admitted on
// probation — all while the intrinsic file server keeps answering every
// request.
//
//	spin fault                      default drill: panic every 3rd request, budget 3
//	spin fault -requests 40 -every 2
//	spin fault -budget 5 -backoff 200ms
//
// The machine is metered, so the whole quarantine lifecycle (backoff,
// probation, restoration) runs in virtual time on the discrete-event
// simulator and the run is reproducible.
func faultCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("fault", stderr)
	requests := fs.Int("requests", 24, "number of GET / requests to replay")
	every := fs.Uint64("every", 3, "inject a panic into every Nth cache invocation")
	budget := fs.Int("budget", 3, "faults per binding before quarantine")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "initial quarantine backoff (virtual time)")
	if err := parse(fs, args); err != nil {
		return err
	}

	tracer := trace.New(trace.Config{Capacity: 16384})
	policy := fault.DefaultPolicy()
	policy.Budget = *budget
	policy.Backoff = *backoff
	w, err := scenario.NewWebserver(kernel.Config{Name: "spin", Metered: true,
		Trace: tracer, FaultPolicy: &policy})
	if err != nil {
		return err
	}
	srv := w.Server

	// The flaky extension: a response cache that panics on every Nth
	// lookup, wired through the deterministic injection harness. It
	// contributes no response of its own, so the intrinsic file server
	// remains the source of truth — the drill measures isolation, not
	// redundancy.
	inj := fault.NewInjector().PanicEvery("Flaky.Cache", *every, 0)
	sig := srv.Request.Signature()
	flakyMod := rtti.NewModule("Flaky")
	flaky, err := srv.Request.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Flaky.Cache", Module: flakyMod, Sig: sig},
		Fn: inj.Handler("Flaky.Cache", func(clo any, args []any) any {
			return (*httpd.Response)(nil)
		}),
	}, dispatch.First())
	if err != nil {
		return err
	}
	// The healthy access logger rides along to show unrelated bindings
	// are untouched by the quarantine.
	if err := w.InstallLogger(); err != nil {
		return err
	}

	// The browser machine issues the request storm over simulated TCP.
	paths := make([]string, *requests)
	for i := range paths {
		paths[i] = "/"
	}
	client, err := w.Browse(paths)
	if err != nil {
		return err
	}

	ok, bad := 0, 0
	for _, r := range client.Responses {
		if r.Status == 200 {
			ok++
		} else {
			bad++
		}
	}
	fmt.Fprintf(stdout, "-- %d requests over the simulated wire --\n", *requests)
	fmt.Fprintf(stdout, "responses: %d OK, %d errors (every raise survived its faults)\n", ok, bad)
	fmt.Fprintf(stdout, "flaky cache invocations: %d of %d requests (the gap is the quarantine window)\n",
		inj.Count("Flaky.Cache"), *requests)
	fmt.Fprintf(stdout, "access logger saw %d requests (healthy bindings untouched)\n", w.Logged)

	ledger := w.Nodes[0].Dispatcher.FaultLedger()
	fmt.Fprintf(stdout, "\n-- quarantine ledger: %d faults recorded --\n", ledger.Total())
	for _, r := range ledger.Records() {
		fmt.Fprintln(stdout, "  ", r)
	}
	fmt.Fprintf(stdout, "Flaky.Cache final state: %v (quarantine level %d, in plan: %v)\n",
		flaky.FaultState(), ledger.Level(flaky), !flaky.Quarantined())

	fmt.Fprintln(stdout, "\n-- lifecycle spans, in causal order --")
	for _, sp := range tracer.Snapshot() {
		switch sp.Kind {
		case trace.KindFault:
			fmt.Fprintf(stdout, "  fault       %s on %s\n", sp.Name, sp.Event)
		case trace.KindQuarantine:
			fmt.Fprintf(stdout, "  quarantine  %s on %s\n", sp.Name, sp.Event)
		case trace.KindProbation:
			verb := "probation"
			if sp.Pass {
				verb = "restored"
			}
			fmt.Fprintf(stdout, "  %-11s %s on %s\n", verb, sp.Name, sp.Event)
		}
	}
	fmt.Fprintf(stdout, "\nvirtual time elapsed: %v\n", vtime.Duration(w.Nodes[0].Clock.Now()))
	return nil
}
