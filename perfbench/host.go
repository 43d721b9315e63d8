package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// hostInfo is the machine and runtime a result was measured on, plus the
// inputs that identify the run. Results are comparable only when every
// host field matches.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func currentHost(seed int64) hostInfo {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       gogc,
		CPUModel:   cpuModel(),
		Seed:       seed,
		Commit:     commit,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
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

// peakRSS is the process's peak resident set ("VmHWM" in /proc/self/status),
// or "" where that is not available.
func peakRSS() string {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// sameHost reports why two results' hosts differ ("" when they match).
// Seed and commit identify the run, not the host, and may differ.
func sameHost(a, b hostInfo) string {
	var diffs []string
	if a.NumCPU != b.NumCPU {
		diffs = append(diffs, fmt.Sprintf("num_cpu %d vs %d", a.NumCPU, b.NumCPU))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.GoVersion != b.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go %s vs %s", a.GoVersion, b.GoVersion))
	}
	if a.GOGC != b.GOGC {
		diffs = append(diffs, fmt.Sprintf("GOGC %s vs %s", a.GOGC, b.GOGC))
	}
	if a.CPUModel != b.CPUModel {
		diffs = append(diffs, fmt.Sprintf("cpu %q vs %q", a.CPUModel, b.CPUModel))
	}
	return strings.Join(diffs, "; ")
}

// benchmarkSpec is the part of BENCHMARK.json a comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints each metric of two result files with its change and,
// for end-to-end metrics, whether the change stays within the bound
// BENCHMARK.json fixes. It refuses results of different hosts, workloads
// or run kinds, and returns an error when a metric worsened past its bound.
func compareFiles(w io.Writer, oldPath, newPath, specPath string) error {
	var old, cur resultFile
	var spec benchmarkSpec
	for path, v := range map[string]any{oldPath: &old, newPath: &cur, specPath: &spec} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	if why := sameHost(old.Host, cur.Host); why != "" {
		return fmt.Errorf("refusing to compare results from different hosts: %s", why)
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		return fmt.Errorf("refusing to compare %s (trace %v) with %s (trace %v)", old.Workload, old.Trace, cur.Workload, cur.Trace)
	}
	bounds := make(map[string]float64)
	better := make(map[string]string)
	for _, m := range spec.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range spec.PerLayer {
		better[m.Name] = m.Better
	}
	names := make([]string, 0, len(cur.Metrics))
	for n := range cur.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var worse []string
	for _, n := range names {
		o, ok := old.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s is missing from %s", n, oldPath)
		}
		c := cur.Metrics[n]
		change := 0.0
		if o.Value != 0 {
			change = (c.Value - o.Value) / o.Value
		}
		worsening := change
		if better[n] == "higher" {
			worsening = -change
		}
		verdict := "no bound"
		if b, ok := bounds[n]; ok {
			verdict = fmt.Sprintf("within bound %.0f%%", b*100)
			if worsening > b {
				verdict = fmt.Sprintf("WORSE than bound %.0f%%", b*100)
				worse = append(worse, n)
			}
		}
		fmt.Fprintf(w, "%-32s %14.6g -> %-14.6g %s %+7.2f%%  %s\n", n, o.Value, c.Value, c.Unit, change*100, verdict)
	}
	if len(worse) > 0 {
		return fmt.Errorf("worse than the bound: %s", strings.Join(worse, ", "))
	}
	return nil
}
