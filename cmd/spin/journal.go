package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"spin/internal/journal"
)

const journalUsage = `usage:
  spin journal dump <file>              print every record, batch by batch
  spin journal verify [-head HEX] <file>  strict tamper check
  spin journal replay <file>            reconstruct the symbolic state
`

// journalCmd inspects and replays dispatcher lifecycle journals (see
// internal/journal and DESIGN.md decision 17).
//
//	spin journal dump file.sj             print every record, batch by batch
//	spin journal verify file.sj           strict tamper check (CRC + Merkle chain)
//	spin journal verify -head HEX file.sj verify against an out-of-band head root
//	spin journal replay file.sj           reconstruct and print the symbolic state
//
// verify exits non-zero on any in-place edit, mid-file truncation, or
// unsealed tail; replay applies only the sealed prefix and reports a
// crash tail without trusting it.
func journalCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("journal", stderr)
	fs.Usage = func() { fmt.Fprint(stderr, journalUsage) }
	if err := parse(fs, args); err != nil {
		return err
	}
	var verb func(args []string, stdout, stderr io.Writer) error
	if args = fs.Args(); len(args) > 0 {
		switch args[0] {
		case "dump":
			verb = dump
		case "verify":
			verb = verify
		case "replay":
			verb = replay
		}
	}
	if verb == nil {
		fs.Usage()
		return errUsage
	}
	if err := verb(args[1:], stdout, stderr); err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	return nil
}

func readJournal(args []string) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("expected exactly one journal file, got %d args", len(args))
	}
	return os.ReadFile(args[0])
}

func dump(args []string, stdout, _ io.Writer) error {
	data, err := readJournal(args)
	if err != nil {
		return err
	}
	res := journal.Scan(data)
	for i, b := range res.Batches {
		fmt.Fprintf(stdout, "batch %d (%d records, root %x...):\n", i, len(b.Records), b.Root[:8])
		for _, rec := range b.Records {
			printRecord(stdout, rec)
		}
	}
	if len(res.Tail) > 0 {
		fmt.Fprintf(stdout, "unsealed tail (%d records, NOT durable):\n", len(res.Tail))
		for _, rec := range res.Tail {
			printRecord(stdout, rec)
		}
	}
	if res.Damaged {
		return fmt.Errorf("journal damaged after %d sealed batch(es): %v", len(res.Batches), res.Err)
	}
	fmt.Fprintf(stdout, "%d sealed batch(es), %d sealed record(s), %d tail record(s)\n",
		len(res.Batches), len(res.SealedRecords()), len(res.Tail))
	return nil
}

func printRecord(stdout io.Writer, rec journal.Record) {
	fmt.Fprintf(stdout, "  %6d %-18s", rec.Seq, rec.Kind)
	if rec.ID != 0 {
		fmt.Fprintf(stdout, " id=%d", rec.ID)
	}
	if rec.RefID != 0 {
		fmt.Fprintf(stdout, " ref=%d", rec.RefID)
	}
	if rec.Event != "" {
		fmt.Fprintf(stdout, " event=%s", rec.Event)
	}
	if rec.Module != "" {
		fmt.Fprintf(stdout, " module=%s", rec.Module)
	}
	if rec.Handler != "" {
		fmt.Fprintf(stdout, " handler=%s", rec.Handler)
	}
	if rec.Flags != 0 {
		fmt.Fprintf(stdout, " flags=%#x", rec.Flags)
	}
	if rec.Priority != 0 {
		fmt.Fprintf(stdout, " pri=%d", rec.Priority)
	}
	if rec.A != 0 {
		fmt.Fprintf(stdout, " a=%d", rec.A)
	}
	if rec.B != 0 {
		fmt.Fprintf(stdout, " b=%d", rec.B)
	}
	fmt.Fprintln(stdout)
}

func verify(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("journal verify", stderr)
	headHex := fs.String("head", "", "trusted head root (hex) to pin the journal's final seal against")
	if err := parse(fs, args); err != nil {
		return err
	}
	data, err := readJournal(fs.Args())
	if err != nil {
		return err
	}
	var rep journal.VerifyReport
	if *headHex != "" {
		raw, err := hex.DecodeString(*headHex)
		if err != nil || len(raw) != journal.HashSize {
			return fmt.Errorf("-head must be %d hex bytes", journal.HashSize)
		}
		var head [journal.HashSize]byte
		copy(head[:], raw)
		rep, err = journal.VerifyAgainst(data, head)
		if err != nil {
			return err
		}
	} else if rep, err = journal.Verify(data); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "OK: %d batch(es), %d record(s), head %x\n", rep.Batches, rep.Records, rep.Head)
	return nil
}

func replay(args []string, stdout, _ io.Writer) error {
	data, err := readJournal(args)
	if err != nil {
		return err
	}
	st := journal.NewState()
	sum, err := journal.Replay(data, st)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replayed %d sealed record(s) in %d batch(es)", sum.Records, sum.Batches)
	if sum.Tail > 0 {
		fmt.Fprintf(stdout, "; %d unsealed tail record(s) ignored", sum.Tail)
	}
	if sum.Damaged {
		fmt.Fprintf(stdout, "; journal DAMAGED after sealed prefix")
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, st.Summary())
	return nil
}
