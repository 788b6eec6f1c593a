package main

import (
	"bufio"
	"context"
	"encoding/json"
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

	d := startDaemon(t, "-trace", path, "-addr", "127.0.0.1:0", "-deltas", "0.1", "-workers", "2")
	got, status := d.get(t, "/figures/fig1a")
	if status != http.StatusOK {
		t.Fatalf("GET /figures/fig1a: status %d\n%s", status, got)
	}
	if want := rranalyzeFig1a(t, path); string(got) != want {
		t.Errorf("served fig1a differs from rranalyze's:\n%s\nwant:\n%s", got, want)
	}

	log := d.stop(t)
	if !strings.Contains(log, "msg=\"shutting down\"") {
		t.Errorf("no shutdown line in the log:\n%s", log)
	}
}

// TestServeFollowsAppend: the daemon, started on a finalized trace with
// no extra flag, picks up days a writer appends in place and publishes
// them by itself — no POST /refresh.
func TestServeFollowsAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.trace")
	cfg := gen.SmallConfig()
	cfg.Days = 200
	if _, err := gen.GenerateToFile(cfg, path); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, "-trace", path, "-addr", "127.0.0.1:0", "-deltas", "0.1", "-workers", "2", "-poll", "20ms")
	if day := d.lastDay(t); day != 199 {
		t.Fatalf("/healthz last_day %d after the warm load, want 199", day)
	}
	cfg.Days = 210
	if _, err := gen.AppendToFile(cfg, path); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for d.lastDay(t) != 209 {
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never reached last_day 209 (at %d)", d.lastDay(t))
		}
		time.Sleep(20 * time.Millisecond)
	}
	d.stop(t)
}

// daemon is an rrserved subprocess serving on an ephemeral port.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logDone chan string
}

// startDaemon runs rrserved with args and waits for its "serving" line.
// The daemon is killed when the test ends unless stop ran first.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{cliArg}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	// Drain the log for the daemon's whole life, handing the bound address
	// over once and keeping every line for the shutdown check.
	// Both channels are buffered so the goroutine never blocks once the
	// test has stopped listening (a failed test kills the daemon, which
	// ends the scan).
	addrc := make(chan string, 1)
	d := &daemon{cmd: cmd, logDone: make(chan string, 1)}
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
		d.logDone <- all.String()
	}()
	select {
	case d.addr = <-addrc:
	case <-time.After(60 * time.Second):
		t.Fatal("no serving line within 60s")
	}
	if strings.HasSuffix(d.addr, ":0") {
		t.Fatalf("serving line names the requested port, not the bound one: %s", d.addr)
	}
	return d
}

// get fetches path and returns the body and status.
func (d *daemon) get(t *testing.T, path string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// lastDay is /healthz's last_day.
func (d *daemon) lastDay(t *testing.T) int32 {
	t.Helper()
	body, status := d.get(t, "/healthz")
	var h struct {
		LastDay int32 `json:"last_day"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &h) != nil {
		t.Fatalf("GET /healthz: status %d\n%s", status, body)
	}
	return h.LastDay
}

// stop sends SIGINT, requires a clean exit and returns the daemon's log.
func (d *daemon) stop(t *testing.T) string {
	t.Helper()
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	log := <-d.logDone
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGINT: %v\n%s", err, log)
	}
	return log
}

// TestCheckpointFlagsNeedDir: each checkpoint flag without
// -checkpoint-dir, and a -poll that is not positive, exits non-zero with
// a message naming the flag, before the daemon waits for the trace (the
// trace path here does not exist, so a check after the wait would hang).
func TestCheckpointFlagsNeedDir(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.trace")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-checkpoint-every", "7"}, "-checkpoint-every needs -checkpoint-dir"},
		{[]string{"-checkpoint-full-every", "4"}, "-checkpoint-full-every needs -checkpoint-dir"},
		{[]string{"-checkpoint-keep", "2"}, "-checkpoint-keep needs -checkpoint-dir"},
		{[]string{"-poll", "0"}, "-poll must be > 0"},
	} {
		// A check the daemon missed would leave it waiting for the trace:
		// the timeout turns that into a failure instead of a hang.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := exec.CommandContext(ctx, os.Args[0], append([]string{cliArg, "-trace", missing}, c.args...)...).CombinedOutput()
		cancel()
		if err == nil {
			t.Errorf("rrserved %v exited 0:\n%s", c.args, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("rrserved %v: output lacks %q:\n%s", c.args, c.want, out)
		}
	}
}

// TestStartupWaitBacksOff: a daemon pointed at a trace that does not
// exist waits for it on the follow loop's backoff and logs the wait once
// per distinct error, not once per probe; SIGINT still ends the wait.
func TestStartupWaitBacksOff(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.trace")
	cmd := exec.Command(os.Args[0], cliArg, "-trace", missing, "-addr", "127.0.0.1:0", "-poll", "10ms")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	const waitMsg = `msg="waiting for a sealed trace prefix"`
	first := make(chan struct{})
	logDone := make(chan string, 1)
	go func() {
		var all strings.Builder
		seen := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			all.WriteString(line + "\n")
			if !seen && strings.Contains(line, waitMsg) {
				seen = true
				close(first)
			}
		}
		logDone <- all.String()
	}()
	select {
	case <-first:
	case <-time.After(30 * time.Second):
		t.Fatal("no wait line within 30s")
	}
	// At a fixed 10ms poll this second would take about 100 probes.
	time.Sleep(time.Second)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var log string
	select {
	case log = <-logDone:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon still running 30s after SIGINT")
	}
	_ = cmd.Wait()
	if !cmd.ProcessState.Exited() {
		t.Errorf("daemon did not exit by itself after SIGINT during the wait (%v):\n%s", cmd.ProcessState, log)
	}
	if code := cmd.ProcessState.ExitCode(); code != 0 {
		t.Errorf("SIGINT during the wait exited %d, want 0 as once serving:\n%s", code, log)
	}
	if n := strings.Count(log, waitMsg); n > 2 {
		t.Errorf("%d wait lines in about 1s at -poll 10ms, want at most 2:\n%s", n, log)
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
