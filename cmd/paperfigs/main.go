// Command paperfigs renders the paper's tables and figures with error bars
// from one declarative grid spec: scenario families × models × predictor
// seeds. Where cmd/experiments reproduces §6's point-estimate evaluation
// over the fixed SPEC95 analogues, paperfigs runs the statistical variant:
// each (workload, model) cell is replicated across the seed axis and the
// tables report mean±95% CI (Student-t), so figure deltas come with the
// uncertainty the SimPoint-style methodology literature asks for.
//
// The grid is one tracep.Spec, from flags or from a JSON spec file:
//
//	paperfigs                                # all four scenario families, 3 seeds
//	paperfigs -scenarios dense-branch,mixed  # family subset
//	paperfigs -scenario-seeds 1,2            # two workload instances per family
//	paperfigs -bench compress,vortex         # add fixed suite workloads
//	paperfigs -seeds 1,2,3,4,5               # five replicates per cell
//	paperfigs -n 200000 -j 4                 # run size and parallelism
//	paperfigs -json > grid.json              # machine-readable ResultSet
//	paperfigs -spec grid.json.spec           # the same grid, declaratively
//
// A spec file is a tracep.Spec in JSON — the body tracepd's POST
// /v1/sweeps accepts — and keeps the flag defaults for what it leaves
// empty (all four families, scenario seed 1, the selection-only models,
// seeds 1,2,3, 100000 instructions), so a file names only what it
// changes. Grid flags are ignored when it is given:
//
//	{
//	  "scenarios": ["ptr-chase", "mixed"],
//	  "scenario_seeds": [1, 2],
//	  "benchmarks": ["compress"],
//	  "models": ["base", "base(ntb)"],
//	  "seeds": [1, 2, 3],
//	  "target_insts": 200000
//	}
//
// Exit codes: 0 success, 1 simulation or spec failure, 130 interrupted.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"tracep"
	"tracep/internal/report"
)

func main() {
	specFile := flag.String("spec", "", "JSON tracep.Spec file; other grid flags are ignored when set")
	scenarios := flag.String("scenarios", "", "comma-separated scenario families (default: all four; see tracep.Scenarios)")
	scenarioSeeds := flag.String("scenario-seeds", "1", "comma-separated generator seeds instantiating each family")
	benchList := flag.String("bench", "", "comma-separated fixed suite benchmarks to append to the grid")
	modelList := flag.String("models", "", "comma-separated model columns (default: the selection-only models)")
	seedsList := flag.String("seeds", "1,2,3", "comma-separated predictor seeds; each cell runs once per seed")
	n := flag.Uint64("n", 100_000, "target dynamic instruction count per run")
	warmup := flag.Uint64("warmup", 0, "fast-forward this many instructions functionally before measuring")
	j := flag.Int("j", 0, "simulations to run in parallel (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit the ResultSet as JSON instead of formatted tables")
	flag.Parse()

	spec, err := gridSpec(*specFile, *scenarios, *scenarioSeeds, *benchList, *modelList, *seedsList, *n, *warmup)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sw, err := spec.Resolve(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sw.Parallelism = *j

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rs, ctxErr := sw.Run(ctx)
	if err := rs.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		if ctxErr != nil {
			fmt.Fprintf(os.Stderr, "sweep interrupted (%v); tables below are partial\n", ctxErr)
		}
		render(rs, sw.Models)
	}

	switch {
	case ctxErr != nil:
		os.Exit(130)
	case rs.Err() != nil:
		os.Exit(1)
	}
}

// gridSpec reads the spec file when one is given, or builds the spec from
// the grid flags, then fills what it leaves empty with paperfigs' defaults:
// all four scenario families, the selection-only models, seeds 1,2,3 and
// 100000 instructions (Resolve itself defaults scenario seeds to {1}).
func gridSpec(specFile, scenarios, scenarioSeeds, benchList, modelList, seedsList string, n, warmup uint64) (tracep.Spec, error) {
	var spec tracep.Spec
	if specFile != "" {
		data, err := os.ReadFile(specFile)
		if err != nil {
			return spec, err
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return spec, fmt.Errorf("%s: %w", specFile, err)
		}
	} else {
		scSeeds, err := parseSeedList("-scenario-seeds", scenarioSeeds)
		if err != nil {
			return spec, err
		}
		seeds, err := parseSeedList("-seeds", seedsList)
		if err != nil {
			return spec, err
		}
		spec = tracep.Spec{Scenarios: splitList(scenarios), ScenarioSeeds: scSeeds, Benchmarks: splitList(benchList),
			Models: splitList(modelList), Seeds: seeds, TargetInsts: n, Warmup: warmup}
	}
	if len(spec.Scenarios) == 0 {
		for _, sc := range tracep.Scenarios() {
			spec.Scenarios = append(spec.Scenarios, sc.Name)
		}
	}
	if len(spec.Models) == 0 {
		for _, md := range tracep.SelectionModels() {
			spec.Models = append(spec.Models, md.Name)
		}
	}
	if len(spec.Seeds) == 0 {
		spec.Seeds = []int64{1, 2, 3}
	}
	if spec.TargetInsts == 0 {
		spec.TargetInsts = 100_000
	}
	return spec, nil
}

// render writes the statistical variants of the paper's displays: Table 3
// with mean±CI cells and the %-improvement figure over the grid's first
// model as baseline.
func render(rs *tracep.ResultSet, models []tracep.Model) {
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	report.Table3(os.Stdout, rs, names)
	fmt.Println()
	if len(names) > 1 {
		report.Figure(os.Stdout,
			fmt.Sprintf("FIGURE: %% IPC improvement over %s (means across seed replicates).", names[0]),
			rs, names[1:], names[0])
	}
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}

func parseSeedList(flagName, spec string) ([]int64, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(spec, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad seed %q: %v", flagName, part, err)
		}
		out = append(out, s)
	}
	return out, nil
}
