package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trace"
)

// cliArg, as the first argument, makes the test binary run as the
// rranalyze command, so the smoke test drives the shipped flag parsing
// and report.
const cliArg = "-run-as-rranalyze"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == cliArg {
		os.Args = append([]string{"rranalyze"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fixtureEvents is a small deterministic trace: three nodes a day over
// six days, each new node befriending its two predecessors.
func fixtureEvents() []trace.Event {
	var evs []trace.Event
	for u := int32(0); u < 18; u++ {
		day := u / 3
		evs = append(evs, trace.Event{Kind: trace.AddNode, Day: day, U: u, Origin: trace.OriginXiaonei})
		for v := max(0, u-2); v < u; v++ {
			evs = append(evs, trace.Event{Kind: trace.AddEdge, Day: day, U: u, V: v})
		}
	}
	return evs
}

// writeTrace writes events to path, flat or segmented (one frame per
// day).
func writeTrace(t *testing.T, path string, events []trace.Event, segmented bool) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type sink interface {
		Write(trace.Event) error
		Flush() error
		Close() error
	}
	var enc sink
	if segmented {
		enc, err = trace.NewSegEncoder(f)
	} else {
		enc, err = trace.NewEncoder(f)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if i > 0 && ev.Day > events[i-1].Day {
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInfoFormatLine pins the -info storage line for a flat, a
// segmented and an empty segmented trace — an empty segmented trace has
// zero segments and must still report as segmented.
func TestInfoFormatLine(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name      string
		events    []trace.Event
		segmented bool
		want      string
	}{
		{"flat.trace", fixtureEvents(), false, "  format flat"},
		{"seg.rrs", fixtureEvents(), true, "  format segmented: 6 segments, 51 events, 204 bytes raw -> 188 compressed (92.2%), day index true"},
		{"empty.rrs", nil, true, "  format segmented: 0 segments, 0 events, 0 bytes raw -> 0 compressed (0.0%), day index true"},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name)
		writeTrace(t, path, tc.events, tc.segmented)
		out, err := exec.Command(os.Args[0], cliArg, "-trace", path, "-info").CombinedOutput()
		if err != nil {
			t.Fatalf("rranalyze -info %s: %v\n%s", tc.name, err, out)
		}
		var got string
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "  format ") {
				got = line
			}
		}
		if got != tc.want {
			t.Errorf("%s: format line %q, want %q", tc.name, got, tc.want)
		}
	}
}

// runCLI runs the rranalyze command with args and returns its stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(os.Args[0], append([]string{cliArg}, args...)...).Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		t.Fatalf("rranalyze %v: %v\n%s", args, err, stderr)
	}
	return string(out)
}

// TestTraceFlagReadsSegmented: a segmented (rrgen -compress) trace
// prints the same panel to stdout as the flat trace of the same
// generator run.
func TestTraceFlagReadsSegmented(t *testing.T) {
	dir := t.TempDir()
	flat, seg := filepath.Join(dir, "small.trace"), filepath.Join(dir, "small.rrs")
	if _, err := gen.GenerateToFile(gen.SmallConfig(), flat); err != nil {
		t.Fatal(err)
	}
	if _, err := gen.GenerateToSegFile(gen.SmallConfig(), seg); err != nil {
		t.Fatal(err)
	}
	want := runCLI(t, "-trace", flat, "-only", "fig1a", "-out", "-")
	if want == "" {
		t.Fatal("flat run printed nothing")
	}
	if got := runCLI(t, "-trace", seg, "-only", "fig1a", "-out", "-"); got != want {
		t.Fatalf("segmented output differs from flat:\n%s\nwant:\n%s", got, want)
	}
}

// TestListWithoutTrace: -list needs no trace and prints every figure id
// once, with the stage the planner registry says produces it.
func TestListWithoutTrace(t *testing.T) {
	var want strings.Builder
	for _, id := range core.AllFigures {
		stage, err := core.StageFor(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "%s\t%s\n", id, stage)
	}
	if got := runCLI(t, "-list"); got != want.String() {
		t.Fatalf("-list printed:\n%s\nwant:\n%s", got, want.String())
	}
}

// TestStdoutMatchesDir: the tables -out - prints are the files -out dir
// writes, concatenated in plan order with a blank line after each.
func TestStdoutMatchesDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "small.trace")
	if _, err := gen.GenerateToFile(gen.SmallConfig(), path); err != nil {
		t.Fatal(err)
	}
	ids := []string{"fig8c", "fig1a", "fig3c"}
	plan, err := core.Plan(core.DefaultConfig(), ids...)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-trace", path, "-only", strings.Join(ids, ",")}
	out := filepath.Join(dir, "figs")
	runCLI(t, append(args, "-out", out)...)
	var want strings.Builder
	for _, id := range plan.Figures() {
		b, err := os.ReadFile(filepath.Join(out, id+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(b)
		want.WriteString("\n")
	}
	if got := runCLI(t, append(args, "-out", "-")...); got != want.String() {
		t.Fatalf("-out - printed:\n%s\nwant:\n%s", got, want.String())
	}
}

// TestCheckpointFlagsNeedDir: each checkpoint flag without
// -checkpoint-dir exits non-zero with a message naming it, before the
// trace is opened (the trace path here does not exist).
func TestCheckpointFlagsNeedDir(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.trace")
	for _, args := range [][]string{
		{"-resume"},
		{"-checkpoint-every", "7"},
		{"-checkpoint-full-every", "4"},
		{"-checkpoint-keep", "2"},
	} {
		out, err := exec.Command(os.Args[0], append([]string{cliArg, "-trace", missing}, args...)...).CombinedOutput()
		if err == nil {
			t.Errorf("rranalyze %v without -checkpoint-dir exited 0:\n%s", args, out)
			continue
		}
		if want := args[0] + " needs -checkpoint-dir"; !strings.Contains(string(out), want) {
			t.Errorf("rranalyze %v: output lacks %q:\n%s", args, want, out)
		}
	}
}
