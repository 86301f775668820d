// Command spin is the one driver for the repository's paper tables, drills
// and inspection tools. Each subcommand takes the flags the stand-alone
// binary it replaces took:
//
//	spin tables   the paper's tables and microbenchmarks (model clock)
//	spin fault    webserver fault-injection drill and quarantine ledger
//	spin load     overload-control ramp (wall clock)
//	spin remote   two-machine remote-raise drill
//	spin trace    replay a scenario with dispatch tracing on
//	spin journal  dump, verify or replay a lifecycle journal
//	spin doc      Table 3 document preview, or -schema reference docs
//
// spinvet (the static verifier) stays a separate binary: `go vet -vettool`
// addresses it by name.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// command is one subcommand. run returns nil on success, errUsage after it
// has reported a command-line mistake itself (exit 2), and any other error
// for main to print (exit 1).
type command struct {
	name    string
	summary string
	run     func(args []string, stdout, stderr io.Writer) error
}

var commands = []command{
	{"tables", "the paper's tables and microbenchmarks (model clock)", tablesCmd},
	{"fault", "webserver fault-injection drill and quarantine ledger", faultCmd},
	{"load", "overload-control ramp (wall clock)", loadCmd},
	{"remote", "two-machine remote-raise drill", remoteCmd},
	{"trace", "replay a scenario with dispatch tracing on", traceCmd},
	{"journal", "dump, verify or replay a lifecycle journal", journalCmd},
	{"doc", "Table 3 document preview, or -schema reference docs", docCmd},
}

var errUsage = errors.New("usage")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name != args[0] {
				continue
			}
			switch err := c.run(args[1:], stdout, stderr); {
			case err == nil, errors.Is(err, flag.ErrHelp):
				return 0
			case errors.Is(err, errUsage):
				return 2
			default:
				fmt.Fprintf(stderr, "spin %s: %v\n", c.name, err)
				return 1
			}
		}
	}
	fmt.Fprintln(stderr, "usage: spin <command> [flags]")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-8s %s\n", c.name, c.summary)
	}
	return 2
}

// newFlags returns the flag set of subcommand name, reporting to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("spin "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args; the flag package has already printed any mistake.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	return nil
}
