package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"tracep"
	"tracep/internal/isa"
	"tracep/internal/proc"
)

// Workload sizes. paper-grid is the §6 grid with cold caches at about
// 100k instructions a cell, so the cycle engine does almost all the work.
// warm-seeds fast-forwards a shared 1M-instruction warm-up per (benchmark,
// seed) row and measures a short region after it (about 20k instructions
// a cell on average, as ScaleFor rounds each benchmark), so snapshot
// capture, restore and per-cell set-up carry a large share of the work.
const (
	paperGridInsts  = 100_000
	warmSeedsWarmup = 1_000_000
	warmSeedsInsts  = warmSeedsWarmup + 10_000
	warmSeedsSeeds  = 4
)

// noTap is a progress interval no run reaches: the sweep's progress hook
// then fires only for each cell's final event, which times the first cell.
const noTap = 1 << 62

// gridEnv is a tracep.Sweep workload.
type gridEnv struct {
	rc      runConfig
	benches []tracep.Benchmark
	models  []tracep.Model
	target  uint64
	warmup  uint64
	seeds   []int64
	// warm holds the set-up pass's cells (base model, first seed), which
	// the first timed sweep must reproduce.
	warm map[string][]byte
}

func setupPaperGrid(ctx context.Context, rc runConfig) (env, error) {
	return newGridEnv(ctx, rc, paperGridInsts, 0, []int64{rc.seed})
}

func setupWarmSeeds(ctx context.Context, rc runConfig) (env, error) {
	seeds := make([]int64, warmSeedsSeeds)
	for i := range seeds {
		seeds[i] = rc.seed + int64(i)
	}
	return newGridEnv(ctx, rc, warmSeedsInsts, warmSeedsWarmup, seeds)
}

// newGridEnv sets the grid up and runs the untimed warm-up pass: every
// benchmark under base at the first seed, so each program's code paths,
// the heap and the worker pool are warm before timing.
func newGridEnv(ctx context.Context, rc runConfig, target, warmup uint64, seeds []int64) (*gridEnv, error) {
	g := &gridEnv{rc: rc, benches: tracep.Benchmarks(), models: tracep.Models(), target: target, warmup: warmup, seeds: seeds}
	sw := g.sweep()
	sw.Models = []tracep.Model{tracep.ModelBase}
	sw.Seeds = seeds[:1]
	rs, err := sw.Run(ctx)
	if err != nil {
		return nil, err
	}
	if err := rs.Err(); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	g.warm = cellBytes(rs)
	return g, nil
}

func (g *gridEnv) close() {}

// sweep is the workload's grid as the public API takes it.
func (g *gridEnv) sweep() *tracep.Sweep {
	sw := &tracep.Sweep{
		Benchmarks:  g.benches,
		Models:      g.models,
		TargetInsts: g.target,
		Warmup:      g.warmup,
		Parallelism: g.rc.workers,
	}
	if len(g.seeds) == 1 {
		sw.Seed = g.seeds[0]
	} else {
		sw.Seeds = g.seeds
	}
	return sw
}

func (g *gridEnv) cells() int { return len(g.benches) * len(g.models) * len(g.seeds) }

func cellKey(bench, model string, seed int64) string {
	return fmt.Sprintf("%s|%s|%d", bench, model, seed)
}

// cellBytes keys every cell of rs to its JSON encoding. A cell's Seed is
// omitted on the wire for seed 0, so keys use the encoded seed.
func cellBytes(rs *tracep.ResultSet) map[string][]byte {
	out := make(map[string][]byte, rs.Len())
	for _, r := range rs.Results() {
		b, err := json.Marshal(r)
		if err != nil {
			b = []byte("unmarshalable: " + err.Error())
		}
		out[cellKey(r.Benchmark, r.Model, r.Seed)] = b
	}
	return out
}

// detach copies every cell's Stats out of the processor that produced it.
// A Result's Stats points into its Processor, so a kept ResultSet keeps
// every simulated machine reachable (several MB a cell); the benchmark
// keeps sets only in detached form.
func detach(rs *tracep.ResultSet) *tracep.ResultSet {
	for _, r := range rs.Results() {
		if r.Stats != nil {
			st := *r.Stats
			r.Stats = &st
		}
	}
	return rs
}

// mismatches counts the cells of got that errored, are missing, or differ
// from want (cells absent from want are not checked).
func mismatches(got *tracep.ResultSet, want map[string][]byte, total int) int {
	bad := total - got.Len()
	for _, r := range got.Results() {
		if r.Err() != nil {
			bad++
			continue
		}
		w, ok := want[cellKey(r.Benchmark, r.Model, r.Seed)]
		if !ok {
			continue
		}
		if b, err := json.Marshal(r); err != nil || string(b) != string(w) {
			bad++
		}
	}
	return bad
}

// modelMetrics sets the simulated headline figures over results: the
// harmonic-mean IPC of base over every base cell, and the ratio of the
// paper's full control-independence model (FG+MLB-RET) to it. The ratio is
// the end-to-end metric because it stays positive where a workload's gain
// is negative; the Figure 10 gain in percent goes to the notes.
func modelMetrics(o *outcome, results []*tracep.Result) {
	var base, ci []float64
	for _, r := range results {
		if r.Stats == nil {
			continue
		}
		switch r.Model {
		case tracep.ModelBase.Name:
			base = append(base, r.Stats.IPC())
		case tracep.ModelFGMLBRET.Name:
			ci = append(ci, r.Stats.IPC())
		}
	}
	o.metrics["ipc_hmean_base"] = hmean(base)
	o.metrics["ci_ipc_ratio"] = 1 + ciGainPct(base, ci)/100
	o.note("ci_gain_pct %.4f %% (harmonic-mean IPC of %s over %s, %d cells each)", ciGainPct(base, ci), tracep.ModelFGMLBRET.Name, tracep.ModelBase.Name, len(base))
}

// timed runs the whole grid back to back until d has passed: each
// Sweep.Run is one job. The first job is checked against the set-up pass
// and every later one against the first, cell by cell.
func (g *gridEnv) timed(ctx context.Context, d time.Duration) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	var want map[string][]byte
	var ref *tracep.ResultSet
	var jobMs, firstMs []float64
	var insts uint64
	var cells int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for len(jobMs) == 0 || time.Since(start) < d {
		sw := g.sweep()
		var first time.Duration
		t0 := time.Now()
		sw.ProgressInterval = noTap
		sw.Progress = func(ev tracep.ProgressEvent) {
			if ev.Done && first == 0 {
				first = time.Since(t0)
			}
		}
		rs, err := sw.Run(ctx)
		lat := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if want == nil {
			ref, want = detach(rs), cellBytes(rs)
			o.check(g.cells(), mismatches(rs, g.warm, g.cells()))
		} else {
			o.check(g.cells(), mismatches(rs, want, g.cells()))
		}
		jobMs = append(jobMs, float64(lat)/1e6)
		firstMs = append(firstMs, float64(first)/1e6)
		for _, r := range rs.Results() {
			if r.Stats != nil {
				insts += r.Stats.RetiredInsts
				cells++
			}
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	modelMetrics(o, ref.Results())
	o.metrics["sim_minsts_per_s"] = float64(insts) / elapsed.Seconds() / 1e6
	o.metrics["alloc_mb_per_cell"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(cells, 1)) / 1e6
	o.metrics["job_p50_ms"] = median(jobMs)
	o.note("%d jobs (one job = one Sweep.Run of %d cells, parallelism %d) in %.2f s", len(jobMs), g.cells(), g.rc.workers, elapsed.Seconds())
	o.note("job_ms tail: %v; first_cell_p50_ms %.4g, tail: %v", tailOf(jobMs), median(firstMs), tailOf(firstMs))
	o.note("warm-up: %d insts per row; measured-region insts per job: %d", g.warmup, insts/uint64(len(jobMs)))
	return o, nil
}

// tracedRow mirrors one Sweep row: a (benchmark, seed) pair sharing a
// program and, when warming up, one snapshot captured by the first cell
// that needs it.
type tracedRow struct {
	bench  string
	prog   *isa.Program
	seed   int64
	cfg    proc.Config
	warmup uint64
	once   sync.Once
	snap   *proc.Snapshot
	err    error
}

// rowConfig is the configuration Sweep gives every cell of a seed row.
func rowConfig(seed int64) proc.Config {
	cfg := proc.DefaultConfig()
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg
}

// traced alternates untraced Sweep.Run passes with traced passes that call
// bench, proc and emu directly, until d has passed. The first untraced
// pass is the reference every later pass must reproduce.
func (g *gridEnv) traced(ctx context.Context, d time.Duration, rec *recorder) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	var untraced, walls, busy []float64
	var want map[string][]byte
	var ref map[string]*proc.Stats
	var results []*tracep.Result
	var last passResult
	probes := &probeResult{captureInsts: g.warmup}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		t0 := time.Now()
		rs, err := g.sweep().Run(ctx)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, time.Since(t0).Seconds())
		if want == nil {
			results, want = detach(rs).Results(), cellBytes(rs)
			o.check(g.cells(), mismatches(rs, g.warm, g.cells()))
			ref = make(map[string]*proc.Stats, len(results))
			for _, r := range results {
				ref[cellKey(r.Benchmark, r.Model, r.Seed)] = r.Stats
			}
		} else {
			o.check(g.cells(), mismatches(rs, want, g.cells()))
		}

		last = g.tracedPass(ctx, rec, pass, ref)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		o.check(g.cells(), last.failed)
		walls = append(walls, last.wall.Seconds())
		busy = append(busy, last.busy.Seconds()/(last.wall.Seconds()*float64(g.rc.workers)))
		probes.runCycles += last.cycles
		probes.runInsts += last.insts
	}
	o.metrics["run.untraced_wall_s"] = median(untraced)
	o.metrics["run.traced_wall_s"] = median(walls)
	o.metrics["sweep.busy_frac"] = median(busy)
	o.note("passes: traced wall %.3v s, untraced Sweep.Run wall %.3v s", walls, untraced)

	rows := last.rows
	if err := g.allocProbe(ctx, rows, probes); err != nil {
		return nil, err
	}
	emuProbe(rec, rows, probes)
	if g.warmup > 0 {
		failed, err := snapshotProbe(rec, rows, probes)
		if err != nil {
			return nil, err
		}
		o.check(len(rows), failed)
	}
	layerMetrics(o, rec.snapshot(), len(walls), probes)
	counterMetrics(o, results)
	return o, nil
}

// passResult is one traced pass: its rows (with their snapshots), wall
// time, summed cell time, failed cells, and simulated cycles and
// instructions.
type passResult struct {
	rows          []*tracedRow
	wall, busy    time.Duration
	failed        int
	cycles, insts uint64
}

// tracedPass runs the grid once on g.rc.workers goroutines, recording a
// span per layer call; a cell fails when it errors or its Stats differ
// from the untraced cell's in ref.
func (g *gridEnv) tracedPass(ctx context.Context, rec *recorder, pass int, ref map[string]*proc.Stats) passResult {
	root := rec.begin("pass", fmt.Sprintf("pass-%d", pass), 0)
	t0 := time.Now()
	type cellJob struct {
		row   *tracedRow
		model proc.Model
	}
	var rows []*tracedRow
	var jobs []cellJob
	for _, bm := range g.benches {
		var prog *isa.Program
		rec.do("bench.build", "build-"+bm.Name, root, func(int) {
			prog = bm.Build(bm.ScaleFor(g.target))
		})
		for _, seed := range g.seeds {
			row := &tracedRow{bench: bm.Name, prog: prog, seed: seed, cfg: rowConfig(seed), warmup: g.warmup}
			rows = append(rows, row)
			for _, m := range g.models {
				jobs = append(jobs, cellJob{row, m})
			}
		}
	}
	ch := make(chan cellJob)
	var mu sync.Mutex
	res := passResult{rows: rows}
	var wg sync.WaitGroup
	for w := 0; w < g.rc.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				key := cellKey(j.row.bench, j.model.Name, j.row.seed)
				c0 := time.Now()
				st, err := runCell(ctx, rec, key, root, j.row, j.model)
				mu.Lock()
				res.busy += time.Since(c0)
				if err != nil || ref[key] == nil || !reflect.DeepEqual(*st, *ref[key]) {
					res.failed++
				} else {
					res.cycles += st.Cycles
					res.insts += st.RetiredInsts
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	rec.end(root)
	res.wall = time.Since(t0)
	return res
}

// runCell is one traced cell: the row's capture (first cell only), then
// restore or construction, then the cycle loop.
func runCell(ctx context.Context, rec *recorder, key string, root int, row *tracedRow, model proc.Model) (*proc.Stats, error) {
	cell := rec.begin("cell", key, root)
	defer rec.end(cell)
	var p *proc.Processor
	var err error
	if row.warmup > 0 {
		row.once.Do(func() {
			rec.do("proc.capture", key, cell, func(int) {
				row.snap, row.err = proc.CaptureSnapshot(ctx, row.prog, row.cfg, row.warmup)
			})
		})
		if row.err != nil {
			return nil, row.err
		}
		rec.do("proc.restore", key, cell, func(int) {
			p, err = proc.NewFromSnapshot(row.snap, model, row.cfg)
		})
		if err != nil {
			return nil, err
		}
	} else {
		rec.do("proc.new", key, cell, func(int) { p = proc.New(row.prog, model, row.cfg) })
	}
	var st *proc.Stats
	rec.do("proc.run", key, cell, func(int) { st, err = p.RunContext(ctx, 0, 0, nil) })
	return st, err
}

// allocProbe runs one cell per row (models taken in turn along the rows)
// alone, so the heap growth between two reads belongs to that call.
func (g *gridEnv) allocProbe(ctx context.Context, rows []*tracedRow, pr *probeResult) error {
	var a, b, c runtime.MemStats
	for i, row := range rows {
		model := g.models[i%len(g.models)]
		runtime.ReadMemStats(&a)
		var p *proc.Processor
		if row.snap != nil {
			var err error
			if p, err = proc.NewFromSnapshot(row.snap, model, row.cfg); err != nil {
				return err
			}
		} else {
			p = proc.New(row.prog, model, row.cfg)
		}
		runtime.ReadMemStats(&b)
		if _, err := p.RunContext(ctx, 0, 0, nil); err != nil {
			return err
		}
		runtime.ReadMemStats(&c)
		mb := float64(b.TotalAlloc-a.TotalAlloc) / 1e6
		if row.snap != nil {
			pr.restoreAlloc = append(pr.restoreAlloc, mb)
		} else {
			pr.newAlloc = append(pr.newAlloc, mb)
		}
		pr.runAlloc = append(pr.runAlloc, float64(c.TotalAlloc-b.TotalAlloc)/1e6)
	}
	return nil
}
