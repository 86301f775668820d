package spin

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateExamples = flag.Bool("update", false, "rewrite testdata/examples/*.golden from this run")

// goldenExamples are the example programs whose stdout is deterministic:
// they run on the virtual-time simulator or print only counters.
// runaway-handlers is left out because it prints wall-clock durations
// ("raiser blocked 5ms").
var goldenExamples = []string{
	"filesystem-filter",
	"packet-filter",
	"quickstart",
	"syscall-emulator",
	"transactions",
	"webserver",
}

// TestExamplesGolden builds every deterministic example and compares its
// stdout with testdata/examples/<name>.golden; -update rewrites the
// goldens (only for a change meant to move an example's output).
func TestExamplesGolden(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH to build the examples")
	}
	bin := t.TempDir()
	pkgs := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, name := range goldenExamples {
		pkgs = append(pkgs, "./examples/"+name)
	}
	if out, err := exec.Command(gobin, pkgs...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range goldenExamples {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			path := filepath.Join("testdata", "examples", name+".golden")
			if *updateExamples {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
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
				t.Errorf("%s: stdout differs from %s\ngot:\n%s\nwant:\n%s", name, path, stdout.Bytes(), want)
			}
		})
	}
}
