package main

import (
	"fmt"
	"io"
	"strings"

	"spin/internal/scenario"
)

// remoteCmd runs the two-machine remote-raise drill: machine A
// raises events across the simulated wire into machine B's dispatcher
// while the link degrades underneath it.
//
//	spin remote            run the drill with the default seed
//	spin remote -seed 7    reseed the lossy phase's fault plan
//
// Three phases, all in virtual time (byte-for-byte reproducible per
// seed):
//
//  1. Clean wire — measures the remote raise→ack round trip against the
//     same event dispatched locally: the latency crossover that decides
//     when remote binding is worth the wire.
//  2. Lossy wire — 10% seeded frame drop; idempotent retries and the
//     receiver's dedup window must deliver every accepted raise exactly
//     once.
//  3. Partition — the wire is cut mid-traffic: heartbeat misses declare
//     the partition, the circuit breaker force-opens, optional bound
//     raises re-route to local fallbacks or shed (visible in the
//     admission ledger), and after the heal the breaker walks
//     half-open → closed and traffic resumes.
func remoteCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("remote", stderr)
	seed := fs.Uint64("seed", 42, "fault-plan seed for the lossy phase")
	if err := parse(fs, args); err != nil {
		return err
	}
	rep, err := scenario.RunDrill(*seed)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "spinremote: two-machine remote raise drill (seed %d)\n\n", *seed)

	fmt.Fprintln(stdout, "phase 1: clean wire")
	fmt.Fprintf(stdout, "  remote raise→ack RTT   %8.2f µs  (%d raises)\n", rep.CleanRTTUs, rep.CleanRaises)
	fmt.Fprintf(stdout, "  local raise            %8.2f µs\n", rep.LocalRaiseUs)
	fmt.Fprintf(stdout, "  crossover              %8.1fx  (local raises per remote round trip)\n\n", rep.CrossoverX)

	fmt.Fprintf(stdout, "phase 2: lossy wire (%.0f%% drop)\n", rep.LossyDropRate*100)
	fmt.Fprintf(stdout, "  raises                 %8d\n", rep.LossyRaises)
	fmt.Fprintf(stdout, "  delivered              %8d\n", rep.LossyDelivered)
	fmt.Fprintf(stdout, "  deduped                %8d  (retry landed after the original)\n", rep.LossyDeduped)
	fmt.Fprintf(stdout, "  retried                %8d  transmission retries\n", rep.LossyRetried)
	fmt.Fprintf(stdout, "  timed out              %8d\n", rep.LossyTimedOut)
	fmt.Fprintf(stdout, "  frames dropped on wire %8d\n", rep.WireDrops)
	fmt.Fprintf(stdout, "  applied on B           %8d  (handler fired %d times)\n", rep.LossyApplied, rep.LossyFired)
	if rep.ExactlyOnce() {
		fmt.Fprintf(stdout, "  exactly-once           ok: every accepted raise fired once\n\n")
	} else {
		fmt.Fprintf(stdout, "  exactly-once           VIOLATED\n\n")
	}

	fmt.Fprintln(stdout, "phase 3: partition, degradation, heal")
	fmt.Fprintf(stdout, "  heartbeat misses       %8d\n", rep.HeartbeatMisses)
	fmt.Fprintf(stdout, "  breaker trips          %8d\n", rep.BreakerTrips)
	fmt.Fprintf(stdout, "  rerouted to fallback   %8d\n", rep.PartitionRerouted)
	fmt.Fprintf(stdout, "  shed (ledger-visible)  %8d\n", rep.PartitionShed)
	fmt.Fprintf(stdout, "  delivered after heal   %8d\n", rep.HealedDelivered)
	fmt.Fprintf(stdout, "  breaker transitions    %s\n", strings.Join(rep.Transitions, ", "))
	return nil
}
