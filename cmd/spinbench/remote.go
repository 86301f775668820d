package main

import (
	"fmt"
	"strings"

	"spin/internal/scenario"
)

// remoteTable prints the remote-raise drill as a bench table: the
// clean-wire latency crossover, the lossy-phase delivery accounting, and
// the partition-phase breaker walk. The drill runs entirely in virtual
// time, so the figures are deterministic per seed; it is opt-in rather
// than part of "all" because it exercises the network substrate, not the
// paper's dispatch tables.
func remoteTable() error {
	rep, err := scenario.RunDrill(42)
	if err != nil {
		return err
	}
	fmt.Println("Remote raise drill (two simulated machines, seed 42)")
	fmt.Println()
	fmt.Printf("  %-28s %12s\n", "figure", "value")
	fmt.Printf("  %-28s %9.2f µs\n", "remote raise→ack RTT", rep.CleanRTTUs)
	fmt.Printf("  %-28s %9.2f µs\n", "local raise", rep.LocalRaiseUs)
	fmt.Printf("  %-28s %8.0fx\n", "latency crossover", rep.CrossoverX)
	fmt.Printf("  %-28s %9d / %d\n", "lossy delivered+deduped",
		rep.LossyDelivered+rep.LossyDeduped, rep.LossyRaises)
	fmt.Printf("  %-28s %9d\n", "lossy retries", rep.LossyRetried)
	fmt.Printf("  %-28s %9d\n", "wire frames dropped", rep.WireDrops)
	fmt.Printf("  %-28s %9d = %d fired\n", "applied on receiver",
		rep.LossyApplied, rep.LossyFired)
	fmt.Printf("  %-28s %9d\n", "partition reroutes", rep.PartitionRerouted)
	fmt.Printf("  %-28s %9d\n", "partition sheds", rep.PartitionShed)
	fmt.Printf("  %-28s %9s\n", "breaker walk",
		strings.Join(rep.Transitions, " → "))
	if rep.LossyApplied != rep.LossyFired ||
		rep.LossyDelivered+rep.LossyDeduped != rep.LossyApplied {
		return fmt.Errorf("exactly-once violated: delivered=%d deduped=%d applied=%d fired=%d",
			rep.LossyDelivered, rep.LossyDeduped, rep.LossyApplied, rep.LossyFired)
	}
	fmt.Println()
	fmt.Println("  exactly-once: every accepted raise fired exactly one handler pass")
	return nil
}
