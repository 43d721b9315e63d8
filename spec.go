package tracep

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// Spec is the by-name, JSON form of a sweep grid: scenario families, suite
// benchmarks, recorded traces, models, predictor seeds and warm-up. It is
// the one grid description the repository has — tracepd's POST /v1/sweeps
// body (server.SweepRequest is this type), the record tracepd's journal
// keeps per job, and what cmd/experiments and cmd/paperfigs build from
// their flags. Resolve turns it into a runnable Sweep:
//
//	spec := tracep.Spec{Scenarios: []string{"mixed"}, ScenarioSeeds: []int64{1, 2},
//		Benchmarks: []string{"compress"}, Seeds: []int64{1, 2, 3}, TargetInsts: 100_000}
//	sw, err := spec.Resolve(nil)
//	...
//	rs, err := sw.Run(ctx)
type Spec struct {
	// Benchmarks names suite workloads (BenchmarkByName) or scenario
	// instances ("<family>-<seed>", the names Scenario.Benchmark gives), so
	// every row name a resolved grid carries resolves again here. Empty =
	// the full eight-workload suite, unless Scenarios or Corpus select
	// rows, in which case empty Benchmarks adds none.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Corpus names recorded-trace workloads in the corpus handed to
	// Resolve (tracepd -corpus, experiments -corpus). An unknown name
	// fails with ErrUnknownCorpus.
	Corpus []string `json:"corpus,omitempty"`
	// Models names experimental models (ModelByName); empty = all eight
	// models of §6.
	Models []string `json:"models,omitempty"`
	// TargetInsts sizes each workload (Sweep.TargetInsts); 0 = the
	// caller's default (tracepd's Config.DefaultTargetInsts).
	TargetInsts uint64 `json:"target_insts,omitempty"`
	// Seed scrambles initial branch-predictor state (WithSeed): the
	// single-replicate degenerate case of Seeds, exactly as on Sweep.
	Seed int64 `json:"seed,omitempty"`
	// Seeds, when non-empty, replicates every (benchmark, model) cell once
	// per seed (Sweep.Seeds). Duplicates are ignored (first occurrence
	// wins). Absent = one replicate per cell under Seed.
	Seeds []int64 `json:"seeds,omitempty"`
	// Warmup fast-forwards this many instructions functionally before each
	// cell's measured region (Sweep.Warmup).
	Warmup uint64 `json:"warmup,omitempty"`
	// WarmupFor overrides Warmup per row, keyed by row name
	// (Sweep.WarmupFor). A missing key falls back to Warmup; an explicit
	// zero forces that row to run cold. Names must be rows of the grid.
	WarmupFor map[string]uint64 `json:"warmup_for,omitempty"`
	// Snapshots maps rows to content-addressed snapshot keys in tracepd's
	// snapshot store (PUT /v1/snapshots/{key} first). A named row restores
	// from its snapshot instead of running the functional warm-up. Resolve
	// checks the names against the grid; the keys are the server's to
	// resolve, so an in-process Sweep ignores them.
	Snapshots map[string]string `json:"snapshots,omitempty"`
	// Tolerances optionally records the regression-gate tolerances the
	// submitter will diff the collected set under (ParseTolerances' JSON
	// shape); tracepd echoes it in Status. Resolve rejects NaN and
	// negative values.
	Tolerances *Tolerances `json:"tolerances,omitempty"`
	// Scenarios names workload families (ScenarioByName); each adds one row
	// per ScenarioSeeds entry, ahead of the Benchmarks rows.
	Scenarios []string `json:"scenarios,omitempty"`
	// ScenarioSeeds are the generator seeds each family is instantiated
	// under; empty = {1}.
	ScenarioSeeds []int64 `json:"scenario_seeds,omitempty"`
}

var (
	// ErrInvalidSpec is wrapped by every Spec.Resolve error except an
	// unknown corpus name: an unknown benchmark, scenario or model, a row
	// that appears twice, a WarmupFor or Snapshots name outside the grid,
	// or a bad tolerance. tracepd answers it with HTTP 400.
	ErrInvalidSpec = errors.New("tracep: invalid sweep spec")
	// ErrUnknownCorpus is wrapped by Spec.Resolve's error for a Corpus name
	// the corpus does not hold. tracepd answers it with HTTP 404: the
	// recording does not exist on that server.
	ErrUnknownCorpus = errors.New("tracep: no such corpus trace")
)

// Resolve validates the spec and returns the Sweep it describes. Rows come
// in a fixed order: scenario instances family-major (each family across
// ScenarioSeeds), then Benchmarks, then Corpus entries looked up in
// corpus. With none of the three set the rows are the full suite. Seeds
// are deduplicated in order. The returned Sweep carries the grid only;
// Config, Parallelism, Gate and Progress are the caller's to set.
func (s Spec) Resolve(corpus map[string]Benchmark) (*Sweep, error) {
	invalid := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
	}
	if s.Tolerances != nil {
		if err := s.Tolerances.validate(); err != nil {
			return nil, invalid("%v", err)
		}
	}
	var benches []Benchmark
	if len(s.Scenarios) == 0 && len(s.Benchmarks) == 0 && len(s.Corpus) == 0 {
		benches = Benchmarks()
	}
	scSeeds := s.ScenarioSeeds
	if len(scSeeds) == 0 {
		scSeeds = []int64{1}
	}
	for _, name := range s.Scenarios {
		sc, err := ScenarioByName(name)
		if err != nil {
			return nil, invalid("unknown scenario %q", name)
		}
		benches = append(benches, sc.Benchmarks(scSeeds...)...)
	}
	for _, name := range s.Benchmarks {
		bm, ok := rowByName(name)
		if !ok {
			return nil, invalid("unknown benchmark %q (want a suite benchmark or a scenario instance such as mixed-1)", name)
		}
		benches = append(benches, bm)
	}
	for _, name := range s.Corpus {
		bm, ok := corpus[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownCorpus, name)
		}
		benches = append(benches, bm)
	}
	inGrid := make(map[string]bool, len(benches))
	for _, bm := range benches {
		if inGrid[bm.Name] {
			return nil, invalid("workload %q appears twice in the requested grid", bm.Name)
		}
		inGrid[bm.Name] = true
	}
	// Sorted, so the reported name is deterministic when several are bad.
	for _, name := range slices.Sorted(maps.Keys(s.WarmupFor)) {
		if !inGrid[name] {
			return nil, invalid("warmup_for names %q, which is not in the requested grid", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(s.Snapshots)) {
		if !inGrid[name] {
			return nil, invalid("snapshots names %q, which is not in the requested grid", name)
		}
	}

	models := Models()
	if len(s.Models) > 0 {
		models = make([]Model, len(s.Models))
		for i, name := range s.Models {
			m, ok := ModelByName(name)
			if !ok {
				return nil, invalid("unknown model %q", name)
			}
			models[i] = m
		}
	}
	sw := &Sweep{
		Benchmarks:  benches,
		Models:      models,
		TargetInsts: s.TargetInsts,
		Seed:        s.Seed,
		Seeds:       s.Seeds,
		Warmup:      s.Warmup,
		WarmupFor:   s.WarmupFor,
	}
	if len(sw.Seeds) > 0 {
		sw.Seeds = sw.effectiveSeeds()
	}
	return sw, nil
}

// rowByName resolves one Spec.Benchmarks entry: a suite benchmark, or a
// scenario instance "<family>-<seed>" in Scenario.Benchmark's exact
// spelling (so "mixed-01" is not "mixed-1").
func rowByName(name string) (Benchmark, bool) {
	if bm, err := BenchmarkByName(name); err == nil {
		return bm, true
	}
	for _, sc := range Scenarios() {
		rest, ok := strings.CutPrefix(name, sc.Name+"-")
		if !ok {
			continue
		}
		if seed, err := strconv.ParseInt(rest, 10, 64); err == nil && strconv.FormatInt(seed, 10) == rest {
			return sc.Benchmark(seed), true
		}
	}
	return Benchmark{}, false
}
