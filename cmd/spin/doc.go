package main

import (
	"fmt"
	"io"

	"spin/internal/journal"
	"spin/internal/vtime"
	"spin/internal/x11"
)

// docCmd runs the paper's end-to-end document-preview workload (§3.2
// "Application performance"): an X11 server on the simulated SPIN machine
// displaying PostScript page images shipped over TCP from a machine
// running ghostview. It regenerates Table 3 (major events raised) and the
// total/idle/X11/kernel/events time breakdown.
//
// It doubles as the repo's schema-doc generator: -schema renders
// reference documentation generated from the same tables the encoders
// use, so the printed format cannot drift from the wire format.
//
//	spin doc                  run with the calibrated parameters
//	spin doc -pages 24        preview a longer document
//	spin doc -breakdown       print only the time breakdown
//	spin doc -schema journal  print the lifecycle-journal record schema
func docCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("doc", stderr)
	pages := fs.Int("pages", 0, "number of pages to preview (0 = calibrated default)")
	pageKB := fs.Int("pagekb", 0, "page image size in KB (0 = calibrated default)")
	breakdownOnly := fs.Bool("breakdown", false, "print only the time breakdown")
	schema := fs.String("schema", "", "print a generated schema document instead of running (journal)")
	if err := parse(fs, args); err != nil {
		return err
	}

	switch *schema {
	case "":
	case "journal":
		fmt.Fprint(stdout, journal.SchemaDoc())
		return nil
	default:
		fmt.Fprintf(stderr, "spin doc: unknown schema %q (have: journal)\n", *schema)
		return errUsage
	}

	r, err := x11.Run(x11.Params{Pages: *pages, PageBytes: *pageKB * 1024})
	if err != nil {
		return err
	}

	if !*breakdownOnly {
		fmt.Fprintln(stdout, "Table 3: major events raised while previewing a document")
		fmt.Fprintln(stdout, "(paper: Ether 2536, Ip 2529, Udp 24, Tcp 2505, OsfNet 3/3,")
		fmt.Fprintln(stdout, " Syscall 3976, Strand.Run 7936, EventNotify 595)")
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, r)
	} else {
		sec := func(d vtime.Duration) float64 { return float64(d) / 1e9 }
		fmt.Fprintf(stdout, "total %.2fs: idle %.2fs, X11 %.2fs, kernel %.2fs, events %.3fs\n",
			sec(r.Total), sec(r.Idle), sec(r.User), sec(r.Kernel), sec(r.Events))
	}
	fmt.Fprintf(stdout, "\npages shown: %d, bytes received: %d, traced syscalls: %d\n",
		r.PagesShown, r.BytesReceived, r.TracedSyscalls)
	fmt.Fprintln(stdout, "(paper breakdown: 23.5s total; 12.52s idle, 4.2s X11, 6.8s kernel, 0.12s events)")
	return nil
}
