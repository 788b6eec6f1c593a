package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/gen"
)

// cliArg, as the first argument, makes the test binary run as the
// figures command: the smoke tests re-execute it with real flags, so
// flag parsing, the open and the output path are exercised as shipped.
const cliArg = "-run-as-figures"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == cliArg {
		os.Args = append([]string{"figures"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the figures command with args and returns its stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(os.Args[0], append([]string{cliArg}, args...)...).Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		t.Fatalf("figures %v: %v\n%s", args, err, stderr)
	}
	return string(out)
}

// TestTraceFlagReadsSegmented: -trace accepts a segmented (rrgen
// -compress) trace, and prints the same panel as for the flat trace of
// the same generator run.
func TestTraceFlagReadsSegmented(t *testing.T) {
	dir := t.TempDir()
	flat, seg := filepath.Join(dir, "small.trace"), filepath.Join(dir, "small.rrs")
	if _, err := gen.GenerateToFile(gen.SmallConfig(), flat); err != nil {
		t.Fatal(err)
	}
	if _, err := gen.GenerateToSegFile(gen.SmallConfig(), seg); err != nil {
		t.Fatal(err)
	}
	want := runCLI(t, "-trace", flat, "-fig", "fig1a")
	if want == "" {
		t.Fatal("flat run printed nothing")
	}
	if got := runCLI(t, "-trace", seg, "-fig", "fig1a"); got != want {
		t.Fatalf("segmented output differs from flat:\n%s\nwant:\n%s", got, want)
	}
}
