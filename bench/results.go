package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// definition is what the program reads of BENCHMARK.json: the run length,
// the workloads, the metrics and their units, and each end-to-end
// metric's regression bound.
type definition struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDefinition(path string) (*definition, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d definition
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func (d *definition) metric(name string) (metricDef, bool) {
	for _, m := range append(append([]metricDef(nil), d.EndToEnd...), d.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

func (d *definition) unit(name string) string {
	m, _ := d.metric(name)
	return m.Unit
}

// complete checks a run's metrics against the definition. An untraced run
// must report exactly the end-to-end metrics. A traced run reports the
// per-layer metrics; a layer the workload does not exercise is absent
// and reads 0.
func (d *definition) complete(metrics map[string]float64, traced bool) error {
	defs := d.EndToEnd
	if traced {
		defs = d.PerLayer
	}
	known := map[string]bool{}
	for _, m := range defs {
		known[m.Name] = true
		if _, ok := metrics[m.Name]; !ok {
			if !traced {
				return fmt.Errorf("run did not report %s", m.Name)
			}
			metrics[m.Name] = 0
		}
	}
	for name := range metrics {
		if !known[name] {
			return fmt.Errorf("run reported %s, which BENCHMARK.json does not define for this mode", name)
		}
	}
	return nil
}

// provenance identifies the host and the build a results file came from.
type provenance struct {
	Nproc       int    `json:"nproc"` // CPUs this process may run on, as nproc counts them
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
}

func hostProvenance() provenance {
	p := provenance{
		Nproc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		VCSRevision: "unknown",
		VCSModified: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.VCSRevision = s.Value
			case "vcs.modified":
				p.VCSModified = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostSteal returns the time this machine's CPUs have spent ready to run
// while the hypervisor ran something else, in USER_HZ ticks of 1/100 s
// (the steal column of /proc/stat), or 0 where it is not reported.
func hostSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return ticks
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// appendResults adds runs to the results file at path, creating it with
// this host's provenance if it does not exist.
func appendResults(path string, runs []runRecord) error {
	r, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		r, err = &resultsFile{Provenance: hostProvenance()}, nil
	}
	if err != nil {
		return err
	}
	r.Runs = append(r.Runs, runs...)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
