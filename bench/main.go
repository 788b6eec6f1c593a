// Command bench is the repository's benchmark. For one workload and seed
// it generates the inputs, runs the workload in a child process of its
// own, checks the outputs, and prints every metric by name with its unit;
// the last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":0.0004,"unit":"s"},...}}
//
// Run it through bench/run.sh from the checkout root, which builds it:
//
//	bash bench/run.sh --workload replay-full --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --seed 2 --runs 5 --out results.json
//	bash bench/run.sh --compare parent.json change.json
//
// BENCHMARK.json names the workloads and metrics; README.md explains them.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// digestsJSON holds the committed output digests by workload and seed.
//
//go:embed digests.json
var digestsJSON []byte

// childTimeout bounds one child run, so that an invocation, input
// generation included, ends within three minutes.
const childTimeout = 150 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	root := fs.String("root", ".", "checkout root: holds BENCHMARK.json; scratch files go under .bench_build")
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 0, "seconds each run measures (0 = run_seconds from BENCHMARK.json)")
	traceFlag := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	runs := fs.Int("runs", 1, "runs per workload, each in a fresh child process on the same inputs")
	out := fs.String("out", "", "append every run, with its provenance, to this results file")
	compare := fs.Bool("compare", false, "compare two results files, parent then change, against the bounds in BENCHMARK.json")
	child := fs.Bool("child", false, "internal: run one workload on prepared inputs")
	input := fs.String("input", "", "internal: directory of prepared inputs")
	result := fs.String("result", "", "internal: file the child writes its result to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		log.Printf("-trace must be 0 or 1, got %d", *traceFlag)
		return 2
	}
	def, err := loadDefinition(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		log.Print(err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			log.Print("-compare needs two results files: parent then change")
			return 2
		}
		return compareFiles(def, fs.Arg(0), fs.Arg(1), stdout)
	}
	if *secs <= 0 {
		*secs = float64(def.RunSeconds)
	}
	if *child {
		w, ok := workloadByName(*name)
		if !ok {
			log.Printf("unknown workload %q", *name)
			return 2
		}
		return runChild(w, *seed, *secs, *traceFlag == 1, *input, *result, *root)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *runs < 1 {
		log.Printf("unknown workload %q (or -runs < 1)", *name)
		return 2
	}
	opt := parentOptions{root: *root, seed: *seed, seconds: *secs, traced: *traceFlag == 1, runs: *runs, out: *out}
	return runParent(def, selected, opt, stdout)
}

// runEnv is what one child run works with.
type runEnv struct {
	w       workload
	seconds time.Duration
	traced  bool
	input   string // generated inputs, read only
	scratch string // the run's own writable directory
	pairs   int    // fewest untraced/traced op pairs of a traced run
	spans   *spanLog
}

// outcome is what a workload run measured and checked.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	digest    string
	problems  []string // correctness failures; any one fails the run
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail counts one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		log.Printf("failed op: "+format, args...)
	}
}

// wrong records a correctness failure.
func (o *outcome) wrong(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	log.Print("incorrect: " + msg)
	o.problems = append(o.problems, msg)
}

// agree folds one op's output digest into the run's: every op of a run
// must produce the same bytes.
func (o *outcome) agree(d string, err error) error {
	if err != nil {
		return err
	}
	if o.digest == "" {
		o.digest = d
	} else if d != o.digest {
		o.wrong("output digest changed between ops: %s then %s", o.digest, d)
	}
	return nil
}

// childResult is what a child hands its parent.
type childResult struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
	Error     string             `json:"error,omitempty"`
}

// runChild runs one workload on the inputs in inputDir and writes a
// childResult to resultPath.
func runChild(w workload, seed int64, secs float64, traced bool, inputDir, resultPath, root string) int {
	scratch := filepath.Join(filepath.Dir(resultPath), "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		log.Print(err)
		return 1
	}
	e := &runEnv{
		w: w, seconds: time.Duration(secs * float64(time.Second)), traced: traced,
		input: inputDir, scratch: scratch, pairs: 5,
	}
	if traced {
		e.spans = newSpanLog()
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	digests, err := committedDigests()
	var out *outcome
	if err == nil {
		out, err = runWorkload(ctx, e)
	}
	if err == nil && !traced {
		out.metrics["peak_rss_mb"], err = peakRSS()
	}
	res := childResult{}
	if err != nil {
		res.Error = err.Error()
	} else {
		if want, ok := digests[w.name][strconv.FormatInt(seed, 10)]; ok && out.digest != want {
			out.wrong("digest %s, committed digest for seed %d is %s", out.digest, seed, want)
		}
		res = childResult{
			Correct:   len(out.problems) == 0,
			Attempted: out.attempted,
			Failed:    out.failed,
			Digest:    out.digest,
			Metrics:   out.metrics,
		}
		if !res.Correct {
			res.Failed = res.Attempted
		}
		if traced {
			spans := filepath.Join(root, ".bench_build", "spans-"+w.name+".json")
			if err := e.spans.write(spans, w.name, seed); err != nil {
				res.Error = err.Error()
			}
		}
	}
	b, _ := json.Marshal(res) // plain values only; cannot fail
	if err := os.WriteFile(resultPath, b, 0o644); err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, e *runEnv) (*outcome, error) {
	if e.w.kind == replayKind {
		return runReplay(ctx, e)
	}
	return runServe(ctx, e)
}

// committedDigests parses digests.json: workload, then seed, to digest.
func committedDigests() (map[string]map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return all, nil
}

type parentOptions struct {
	root    string
	seed    int64
	seconds float64
	traced  bool
	runs    int
	out     string
}

// runRecord is one run as a results file keeps it.
type runRecord struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Trace     int       `json:"trace"`
	Seconds   float64   `json:"seconds"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Digest    string    `json:"digest"`
	Inputs    inputInfo `json:"inputs"`
	// HostStealS is information, not a metric: the CPU seconds the host
	// withheld from this machine while the run's child ran.
	HostStealS float64            `json:"host_steal_s"`
	Metrics    map[string]float64 `json:"metrics"`
}

// runParent generates each selected workload's inputs once, runs it
// opt.runs times in child processes, prints each run's result line, and
// appends the runs to the results file. It exits non-zero if any run
// was incorrect; failed operations are reported, not fatal.
func runParent(def *definition, selected []workload, opt parentOptions, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("host: %+v", hostProvenance())
	status := 0
	var records []runRecord
	for _, w := range selected {
		work := filepath.Join(opt.root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", w.name, opt.seed, os.Getpid()))
		recs, err := runWorkloadRuns(def, w, opt, exe, work)
		os.RemoveAll(work)
		if err != nil {
			log.Printf("%s: %v", w.name, err)
			return 1
		}
		for _, r := range recs {
			if err := printResult(stdout, def, r); err != nil {
				log.Print(err)
				return 1
			}
			if !r.Correct {
				status = 1
			}
		}
		records = append(records, recs...)
	}
	if opt.out != "" {
		if err := appendResults(opt.out, records); err != nil {
			log.Print(err)
			return 1
		}
	}
	return status
}

func runWorkloadRuns(def *definition, w workload, opt parentOptions, exe, work string) ([]runRecord, error) {
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	input := filepath.Join(work, "input")
	info, err := w.generate(input, opt.seed)
	if err != nil {
		return nil, err
	}
	log.Printf("%s seed %d: %d nodes, %d edges, %d events, %d days, generated in %.1fs",
		w.name, opt.seed, info.Nodes, info.Edges, info.Events, info.Days, info.GenS)
	var recs []runRecord
	for i := 0; i < opt.runs; i++ {
		dir := filepath.Join(work, "run"+strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		steal0 := hostSteal()
		res, err := spawnChild(exe, w, opt, input, dir)
		if err != nil {
			return nil, err
		}
		steal := float64(hostSteal()-steal0) / 100
		if res.Error != "" {
			return nil, errors.New(res.Error)
		}
		metrics := res.Metrics
		if err := def.complete(metrics, opt.traced); err != nil {
			return nil, err
		}
		log.Printf("%s seed %d run %d: digest %s, host steal %.1fs", w.name, opt.seed, i, res.Digest, steal)
		recs = append(recs, runRecord{
			Workload: w.name, Seed: opt.seed, Trace: btoi(opt.traced), Seconds: opt.seconds,
			Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Digest: res.Digest,
			Inputs: info, HostStealS: steal, Metrics: metrics,
		})
	}
	return recs, nil
}

// spawnChild runs one workload in a child process, so that its peak RSS,
// GC state and process-wide caches are its own, and returns the child's
// result. The child dies with the parent.
func spawnChild(exe string, w workload, opt parentOptions, input, dir string) (*childResult, error) {
	resultPath := filepath.Join(dir, "result.json")
	cmd := exec.Command(exe, "-child", "-root", opt.root, "-workload", w.name,
		"-seed", strconv.FormatInt(opt.seed, 10), "-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(btoi(opt.traced)), "-input", input, "-result", resultPath)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	b, err := os.ReadFile(resultPath)
	if err != nil {
		return nil, err
	}
	var res childResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

// peakRSS returns this process's peak resident set size in MiB: VmHWM,
// the high-water mark of its own address space. The parent cannot use
// wait4's ru_maxrss for this, because Linux carries the parent's memory
// at the time of the fork into the child's.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM")
}

// printResult writes a run's result line: correctness, op counts, and
// every metric with its unit.
func printResult(w io.Writer, def *definition, r runRecord) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, v := range r.Metrics {
		metrics[name] = value{v, def.unit(name)}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, name, r.Metrics[name], def.unit(name))
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
