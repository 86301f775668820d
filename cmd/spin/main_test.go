package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestSubcommandGolden pins the stdout of every deterministic subcommand.
// The goldens were captured from the stand-alone binaries this driver
// replaced (spinfault, spinremote, spintrace, spindoc, spinjournal,
// spinbench), so a drift here is a drift in a virtual-time drill, a model
// table or a printed format (remote_seed7 came later, with the fix to the
// drill's exactly-once line). tables_all is spinbench's -table all.
// testdata/small.sj is a ten-record, three-batch journal written by the
// parent commit's encoder.
func TestSubcommandGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   string
	}{
		{"tables_all", "tables"},
		{"tables_tree", "tables -table tree"},
		{"tables_disasm", "tables -disasm"},
		{"fault", "fault"},
		{"remote_seed42", "remote -seed 42"},
		// Seed 7 loses an acknowledgement: the sender times out on a raise B
		// applied once, and the drill must still read exactly-once ok.
		{"remote_seed7", "remote -seed 7"},
		{"trace_webserver", "trace -scenario webserver"},
		{"trace_syscall_chrome", "trace -scenario syscall -format chrome"},
		{"doc", "doc"},
		{"doc_breakdown", "doc -breakdown"},
		{"doc_schema_journal", "doc -schema journal"},
		{"journal_dump", "journal dump testdata/small.sj"},
		{"journal_verify", "journal verify testdata/small.sj"},
		{"journal_replay", "journal replay testdata/small.sj"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
				t.Fatalf("spin %s: exit %d, stderr:\n%s", tc.args, code, stderr.String())
			}
			path := filepath.Join("testdata", tc.golden+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("spin %s: stdout differs from %s (run with -update only for a change meant to move it)\ngot:\n%s",
					tc.args, path, stdout.String())
			}
		})
	}
}

// TestLoadRuns covers the one wall-clock subcommand: its figures vary by
// host, so only the exit status and the table's header row are checked.
func TestLoadRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("load -step 20ms"), &stdout, &stderr); code != 0 {
		t.Fatalf("spin load: exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "offered/s") || !strings.Contains(stdout.String(), "ledger: submitted=") {
		t.Errorf("spin load: no header row or ledger line in:\n%s", stdout.String())
	}
}

// TestUsageErrors pins the exit status of command-line mistakes: 2, with
// nothing on stdout and the complaint on stderr. "tables -table bogus" pins
// the fix for spinbench, which printed nothing and exited 0 on a table name
// it did not know.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct{ args, complaint string }{
		{"", ""},
		{"bogus", ""},
		{"journal", ""},
		{"journal frob x", ""},
		{"doc -schema x", ""},
		{"fault -nosuchflag", ""},
		{"tables -table bogus", "have: 1, 2, tree, install, async, micro, all"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 2 {
			t.Errorf("spin %s: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.complaint) || stderr.Len() == 0 {
			t.Errorf("spin %s: stdout %q, stderr %q; want a complaint containing %q on stderr only",
				tc.args, stdout.String(), stderr.String(), tc.complaint)
		}
	}
}
