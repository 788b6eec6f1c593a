package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trace"
)

// cliArg, as the first argument, makes the test binary run as the rrserved
// command, so the smoke test drives the shipped flag parsing, listener and
// signal handling.
const cliArg = "-run-as-rrserved"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == cliArg {
		os.Args = append([]string{"rrserved"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestServeSmoke starts the daemon on an ephemeral port, reads the bound
// address from its "serving" log line, fetches fig1a — which must be the
// TSV `rranalyze -only fig1a` writes for the same trace — and stops it
// with SIGINT, which must shut it down cleanly.
func TestServeSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "small.trace")
	if _, err := gen.GenerateToFile(gen.SmallConfig(), path); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], cliArg, "-trace", path, "-addr", "127.0.0.1:0", "-deltas", "0.1", "-workers", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Drain the log for the daemon's whole life, handing the bound address
	// over once and keeping every line for the shutdown check.
	// Both channels are buffered so the goroutine never blocks once the
	// test has stopped listening (a failed test kills the daemon, which
	// ends the scan).
	addrc := make(chan string, 1)
	logDone := make(chan string, 1)
	go func() {
		var all strings.Builder
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			all.WriteString(line + "\n")
			if i := strings.Index(line, "addr="); i >= 0 && strings.Contains(line, "msg=serving") {
				addrc <- strings.Fields(line[i+len("addr="):])[0]
			}
		}
		logDone <- all.String()
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(60 * time.Second):
		t.Fatal("no serving line within 60s")
	}
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("serving line names the requested port, not the bound one: %s", addr)
	}

	resp, err := http.Get("http://" + addr + "/figures/fig1a")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /figures/fig1a: %s\n%s", resp.Status, got)
	}
	if want := rranalyzeFig1a(t, path); string(got) != want {
		t.Errorf("served fig1a differs from rranalyze's:\n%s\nwant:\n%s", got, want)
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	log := <-logDone
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGINT: %v\n%s", err, log)
	}
	if !strings.Contains(log, "msg=\"shutting down\"") {
		t.Errorf("no shutdown line in the log:\n%s", log)
	}
}

// rranalyzeFig1a is what `rranalyze -trace path -only fig1a` writes to
// fig1a.tsv: the minimal plan for the panel under the default config.
func rranalyzeFig1a(t *testing.T, path string) string {
	t.Helper()
	src, err := trace.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunFigures(context.Background(), src, core.DefaultConfig(), "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := res.Figure("fig1a")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tab.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
