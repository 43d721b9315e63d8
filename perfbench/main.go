// Command perfbench is the repository's benchmark: it runs one named
// workload through tracep's public entry points (tracep.Sweep, and a
// loopback tracepd driven by client.Client), checks every output, and
// prints the end-to-end metrics; with -trace 1 it instead runs a traced
// pass that calls each layer directly and prints per-layer metrics.
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh -compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the full result, with host
// metadata, is also written under -out. See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not decide the figure.
const setupReps = 3

type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the simulator or the service sees;
// every workload reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_minsts_per_s", "Minst/s", "higher"},
	{"alloc_mb_per_cell", "MB", "lower"},
	{"ipc_hmean_base", "inst/cycle", "higher"},
	{"ci_ipc_ratio", "ratio", "higher"},
	{"job_p50_ms", "ms", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not call
// reports 0.
var perLayer = []metricDef{
	{"run.untraced_wall_s", "s", "lower"},
	{"run.traced_wall_s", "s", "lower"},
	{"sweep.busy_frac", "fraction", "higher"},
	{"bench.build_ms", "ms", "lower"},
	{"proc.new_ms", "ms", "lower"},
	{"proc.new_alloc_mb", "MB", "lower"},
	{"proc.run_s", "s", "lower"},
	{"proc.ns_per_cycle", "ns", "lower"},
	{"proc.ns_per_inst", "ns", "lower"},
	{"proc.run_alloc_mb", "MB", "lower"},
	{"proc.capture_ms", "ms", "lower"},
	{"proc.capture_minsts_per_s", "Minst/s", "higher"},
	{"proc.restore_ms", "ms", "lower"},
	{"proc.restore_alloc_mb", "MB", "lower"},
	{"proc.snapshot_kb", "KB", "lower"},
	{"proc.snapshot_marshal_ms", "ms", "lower"},
	{"proc.snapshot_unmarshal_ms", "ms", "lower"},
	{"emu.minsts_per_s", "Minst/s", "higher"},
	{"tracefile.bits_per_inst", "bit/inst", "lower"},
	{"tracefile.encode_minsts_per_s", "Minst/s", "higher"},
	{"tracefile.open_ms", "ms", "lower"},
	{"tracefile.decode_minsts_per_s", "Minst/s", "higher"},
	{"store.append_us_p50", "us", "lower"},
	{"store.append_us_p95", "us", "lower"},
	{"store.records_per_job", "count", "lower"},
	{"client.submit_ms", "ms", "lower"},
	{"server.stream_bytes_per_cell", "B", "lower"},
	{"server.overhead_frac", "fraction", "lower"},
	{"proc.useful_frac", "fraction", "higher"},
	{"proc.recoveries_per_1k", "per_1k_inst", "lower"},
	{"proc.reissues_per_1k", "per_1k_inst", "lower"},
	{"trace.tc_miss_per_1k", "per_1k_inst", "lower"},
	{"tpred.misp_per_1k", "per_1k_inst", "lower"},
	{"bpred.misp_per_1k", "per_1k_inst", "lower"},
	{"cache.ic_miss_per_1k", "per_1k_inst", "lower"},
	{"cache.dc_miss_per_1k", "per_1k_inst", "lower"},
	{"core.bit_miss_rate", "fraction", "lower"},
	{"arb.snoop_reissues_per_1k", "per_1k_inst", "lower"},
}

// runConfig is what a workload's set-up receives.
type runConfig struct {
	seed    int64
	workers int    // simulation parallelism and client count: the host's CPUs
	workdir string // scratch space inside the checkout
}

// env is one set-up workload, ready to measure.
type env interface {
	// timed runs the workload untraced for about d and returns the
	// end-to-end metrics (all but setup_s).
	timed(ctx context.Context, d time.Duration) (*outcome, error)
	// traced runs the untraced reference pass, then traced passes for
	// about d, and returns the per-layer metrics.
	traced(ctx context.Context, d time.Duration, rec *recorder) (*outcome, error)
	close()
}

// outcome is a measured run: cells attempted and failed (errored or not
// matching their reference), metric values, and human-readable detail.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check counts n cells and those among them that failed.
func (o *outcome) check(n, failed int) {
	o.attempted += n
	o.failed += failed
}

var workloads = map[string]func(ctx context.Context, rc runConfig) (env, error){
	"paper-grid":     setupPaperGrid,
	"warm-seeds":     setupWarmSeeds,
	"tracepd-corpus": setupCorpus,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what a run writes under -out and what -compare reads.
type resultFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    bool     `json:"trace"`
	Host     hostInfo `json:"host"`
	summary
	Notes []string `json:"notes"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: paper-grid, warm-seeds or tracepd-corpus")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run instead of the timed end-to-end run")
	out := flag.String("out", ".bench_build/results", "directory for result and span files")
	compare := flag.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare takes two result files")
			return 2
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	setup, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (paper-grid, warm-seeds, tracepd-corpus), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, err := measure(ctx, setup, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printResult(res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d cells failed their checks\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func measure(ctx context.Context, setup func(context.Context, runConfig) (env, error), workload string, seed int64, d time.Duration, trace bool, outDir string) (*resultFile, error) {
	rc := runConfig{seed: seed, workers: runtime.NumCPU(), workdir: filepath.Join(outDir, "work")}
	if err := os.MkdirAll(rc.workdir, 0o755); err != nil {
		return nil, err
	}
	var setupTimes []float64
	var e env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, rc); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer e.close()

	defs := endToEnd
	var o *outcome
	var err error
	rec := newRecorder()
	if trace {
		defs = perLayer
		o, err = e.traced(ctx, d, rec)
	} else {
		o, err = e.timed(ctx, d)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if !trace {
		o.metrics["setup_s"] = median(setupTimes)
		o.note("setup_s: median of %d set-ups %.3v s", len(setupTimes), setupTimes)
	}
	if rss := peakRSS(); rss != "" {
		o.note("peak resident memory: %s", rss)
	}
	res := &resultFile{Workload: workload, Seed: seed, Trace: trace, Host: currentHost(seed),
		summary: summary{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}, Notes: o.notes}
	res.Correct = o.failed == 0 && o.attempted > 0
	for _, m := range defs {
		if !validName(m.Name) {
			return nil, fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		v, ok := o.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured (%v)", workload, m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if err := writeResult(res, rec, outDir); err != nil {
		return nil, err
	}
	return res, nil
}

func writeResult(res *resultFile, rec *recorder, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace0", res.Workload, res.Seed)
	if res.Trace {
		base = fmt.Sprintf("%s-seed%d-trace1", res.Workload, res.Seed)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, base+".json"), data, 0o644); err != nil {
		return err
	}
	if res.Trace {
		// Spans stay in memory during the run and are written out once here.
		return rec.writeFile(filepath.Join(outDir, base+"-spans.json"))
	}
	return nil
}

func printResult(res *resultFile) {
	h, _ := json.Marshal(res.Host)
	fmt.Printf("workload %s seed %d trace %v\nhost %s\n", res.Workload, res.Seed, res.Trace, h)
	fmt.Println("model: unvalidated — no hardware reference exists; testdata/ci-baseline.json is a regression reference, so no error figure is given")
	for _, n := range res.Notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-32s %14.6g fraction (%d of %d cells)\n", "failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	line, err := json.Marshal(res.summary)
	if err != nil {
		panic(err) // measure rejects NaN and Inf, so finite float64s always marshal
	}
	fmt.Println(string(line))
}
