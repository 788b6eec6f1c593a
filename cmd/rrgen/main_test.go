package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// cliArg, as the first argument, makes the test binary run as the rrgen
// command: the smoke tests re-execute it with real flags, so flag parsing,
// the writers and the report are exercised as shipped.
const cliArg = "-run-as-rrgen"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == cliArg {
		os.Args = append([]string{"rrgen"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the rrgen command with args and returns its stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(os.Args[0], append([]string{cliArg}, args...)...).Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		t.Fatalf("rrgen %v: %v\n%s", args, err, stderr)
	}
	return string(out)
}

// TestCheckSmallPreset: the small preset writes a trace that passes the
// -check validation pass off disk.
func TestCheckSmallPreset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "small.trace")
	out := runCLI(t, "-preset", "small", "-seed", "1", "-out", path, "-check")
	if !strings.HasPrefix(out, "wrote "+path+": 300 days,") {
		t.Errorf("report %q, want a 300-day write of %s", out, path)
	}
	if !strings.Contains(out, "trace validated") {
		t.Errorf("report %q lacks the validation line", out)
	}
}

// TestAppendMatchesFromScratch: -append extends a trace in place to a
// longer -days horizon, byte-identical to generating the longer trace from
// scratch.
func TestAppendMatchesFromScratch(t *testing.T) {
	dir := t.TempDir()
	grown, scratch := filepath.Join(dir, "grown.trace"), filepath.Join(dir, "scratch.trace")
	runCLI(t, "-preset", "small", "-days", "250", "-out", grown)
	out := runCLI(t, "-preset", "small", "-days", "300", "-append", "-out", grown)
	if !strings.HasPrefix(out, "extended "+grown+": 300 days,") {
		t.Errorf("append report %q, want a 300-day extension of %s", out, grown)
	}
	runCLI(t, "-preset", "small", "-days", "300", "-out", scratch)
	a, err := os.ReadFile(grown)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("appended trace (%d bytes) differs from the from-scratch one (%d bytes)", len(a), len(b))
	}
}
