package tracep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"tracep/internal/bench"
	"tracep/internal/proc"
)

// Sweep fans a (benchmark × model × seed) grid of simulations across a
// bounded pool of worker goroutines — the paper's §6 evaluation is 8
// workloads × 8 models, embarrassingly parallel, and the Seeds axis adds
// replicate runs per cell for mean±CI statistical reporting. Every run is
// an independent, deterministic simulation, so a parallel sweep produces
// results bit-identical to a serial loop; only wall-clock time changes.
//
// Each benchmark program is built exactly once per sweep and shared,
// read-only, by every model cell and seed replicate in its rows (programs
// are immutable at run time; see Simulator). An N-model, R-seed sweep
// therefore performs N×R fewer builds than a loop over NewBenchmark.
//
// The zero value is not useful: populate Benchmarks and Models, then call
// Run (one ResultSet at the end) or Stream (cells as they complete).
type Sweep struct {
	// Benchmarks and Models span the cross-product; every (benchmark,
	// model) pair is simulated once.
	Benchmarks []Benchmark
	Models     []Model

	// TargetInsts sizes each workload to roughly this many dynamic
	// instructions (like NewBenchmark); each run proceeds to architectural
	// halt.
	TargetInsts uint64

	// Config is the processor configuration for every run (nil =
	// DefaultConfig). It is validated once per run, like Simulator.Run.
	Config *Config

	// Seed scrambles initial branch-predictor state (see WithSeed). It is
	// the single-replicate degenerate case of Seeds: a sweep with Seeds
	// unset runs every cell once under Seed, exactly as before the seed
	// axis existed.
	Seed int64

	// Seeds, when non-empty, turns the sweep into a three-axis grid: every
	// (benchmark, model) cell runs once per seed, each replicate a fully
	// independent deterministic simulation fanned through the same worker
	// pool. Result.Seed records each replicate's seed, and the ResultSet
	// aggregates a cell's replicates into CellStats distributions
	// (mean ± 95% CI). Duplicate seeds are ignored (first occurrence
	// wins); seed 0 means canonical predictor state, like Seed. Nil
	// preserves the two-axis behaviour: one replicate per cell under Seed.
	Seeds []int64

	// Warmup fast-forwards this many instructions functionally before each
	// cell's measured region (see WithWarmup). The warm-up's committed path
	// depends on neither the model nor the seed, so the sweep runs one
	// functional pass per benchmark — extending the build-once program
	// sharing — which captures one Snapshot per seed row (only the branch
	// predictor's start state depends on the seed), and forks every model
	// cell of a row from its row's snapshot; an N-model, R-seed sweep
	// performs N×R fewer warm-ups than per-cell WithWarmup sessions, with
	// byte-identical results. Each benchmark's capture is queued one
	// benchmark ahead of its cells, so it overlaps the previous benchmark's
	// simulations. A warm-up that fails (e.g. it runs past the program's
	// halt) fails every cell of the benchmark, like a failed build.
	Warmup uint64

	// Snapshots provides pre-captured warm-up snapshots per benchmark row,
	// keyed by Benchmark.Name. A row with an entry forks every model cell
	// from the provided snapshot instead of capturing its own — the
	// row-level placement hook the sweep cluster uses: a coordinator
	// captures (or fetches from its content-addressed store) one snapshot
	// per row and ships it to whichever node runs the row, and the
	// receiving node's Sweep restores from it without re-running the
	// functional warm-up. The snapshot must have been captured from the
	// same benchmark program and a compatible configuration (see
	// Snapshot.CompatibleWith); mismatches fail the row's cells with errors
	// wrapping ErrIncompatibleSnapshot. Rows without an entry fall back to
	// Warmup/WarmupFor capture as usual.
	//
	// Snapshots are keyed by benchmark only, but a warmed-up snapshot
	// embeds seed-dependent predictor state: under a multi-seed Seeds axis
	// a provided snapshot can only match one seed row's configuration, and
	// the other rows fail compatibility. The cluster therefore places work
	// per (benchmark, seed) row, each shipped as its own single-seed sweep.
	Snapshots map[string]*Snapshot

	// WarmupFor overrides Warmup per benchmark row, keyed by Benchmark.Name:
	// workloads reach steady state at different depths (a tight kernel warms
	// in thousands of instructions, a call-heavy workload in hundreds of
	// thousands), so a sweep can give each row its own warm-up length. A
	// missing key falls back to Warmup; an explicit zero entry forces that
	// row to run cold. Stats.WarmupInsts records each cell's effective
	// warm-up, so baseline diffs remain like-for-like per cell.
	WarmupFor map[string]uint64

	// Parallelism bounds the worker pool (<= 0 = GOMAXPROCS).
	Parallelism int

	// Gate, when non-nil, additionally bounds concurrency across every
	// sweep sharing the same Gate: a worker holds a gate slot only while
	// actually simulating a cell. Parallelism still caps this sweep's own
	// workers; the Gate caps the machine-wide total (see NewGate).
	Gate *Gate

	// Progress, when set, receives every run's ProgressEvents (including
	// per-run Done events). Events from concurrent runs are serialised, so
	// the hook needs no locking of its own.
	Progress func(ProgressEvent)
	// ProgressInterval is the retired-instruction spacing of progress
	// events (0 = DefaultProgressInterval).
	ProgressInterval uint64
}

// sweepGroup is the state one benchmark shares across its seed rows and
// model cells: the immutable program (built once, in the feeder, and shared
// read-only by every row) and, when the sweep warms up, one snapshot per
// seed row. The warm-up's committed path is the same under every seed —
// only the branch predictor's start state differs — so one functional pass
// captures every row's snapshot. The feeder queues that capture as a job
// of its own one benchmark ahead of the benchmark's cells, so a worker
// warms benchmark b+1 while the others simulate b. A failed build or
// warm-up fails every cell of the benchmark.
type sweepGroup struct {
	sw       *Sweep
	bench    string
	seeds    []int64
	prog     *Program
	buildErr error
	// recorded carries the benchmark's .tptrace stream for recorded-trace
	// benchmarks (Benchmark.Recorded); every cell opens its own cursor.
	recorded *bench.RecordedTrace
	// warmup is the benchmark's effective warm-up length (WarmupFor
	// override or the sweep-wide Warmup), resolved once at feed time.
	warmup uint64
	// provided is the benchmark's pre-captured snapshot (Sweep.Snapshots),
	// which supersedes capture entirely.
	provided *Snapshot

	capture sync.Once
	snaps   []*Snapshot // one per seed, in seeds order
	snapErr error
}

// needsCapture reports whether the benchmark's cells restore from a
// snapshot the sweep must capture itself.
func (g *sweepGroup) needsCapture() bool {
	return g.buildErr == nil && g.provided == nil && g.warmup > 0
}

// captureOnce runs the benchmark's one warm-up pass, on the first call
// only, whether from the capture job or from a cell that got there first.
// The capturing goroutine holds a Gate slot only for the capture itself —
// warm-up CPU work is bounded exactly like simulation work — while
// concurrent callers wait slot-free until the one capture finishes,
// leaving the gate's capacity to other sweeps.
func (g *sweepGroup) captureOnce(ctx context.Context, gate *Gate) {
	g.capture.Do(func() {
		if !gate.acquire(ctx) {
			g.snapErr = ctx.Err()
			return
		}
		defer gate.release()
		cfgs := make([]Config, len(g.seeds))
		for i, seed := range g.seeds {
			cfgs[i] = g.sw.cellConfig(seed)
		}
		g.snaps, g.snapErr = proc.CaptureSnapshots(ctx, g.prog, cfgs, g.warmup)
	})
}

// sweepRow is one (benchmark, seed) row: the cluster's placement unit,
// because warm-up snapshots carry seed-dependent predictor state.
type sweepRow struct {
	*sweepGroup
	seed int64
	i    int // index of seed in the group's seeds
}

// snapshot returns the row's warm-up snapshot (nil when the sweep does not
// warm up), running the benchmark's capture if no worker has yet. Every
// restore copies what it takes out of the snapshot into the cell's own
// engine, so handing it to every cell is race-free.
func (r sweepRow) snapshot(ctx context.Context, gate *Gate) (*Snapshot, error) {
	if !r.needsCapture() {
		return r.provided, nil
	}
	r.captureOnce(ctx, gate)
	if r.snapErr != nil {
		return nil, r.snapErr
	}
	return r.snaps[r.i], nil
}

// warmupFor resolves the effective warm-up length for a benchmark row: the
// per-benchmark override when present, the sweep-wide default otherwise.
func (sw *Sweep) warmupFor(bench string) uint64 {
	if n, ok := sw.WarmupFor[bench]; ok {
		return n
	}
	return sw.Warmup
}

// sweepJob is one cell — the row plus the model to run it under — or,
// when capture is set, a benchmark's warm-up capture, which delivers no
// result.
type sweepJob struct {
	row     sweepRow
	model   Model
	capture *sweepGroup
}

// cellConfig resolves the one configuration every cell of a seed row runs
// under and the row's snapshot is captured with (runOne passes it via
// WithConfig), so capture and restore agree by construction.
func (sw *Sweep) cellConfig(seed int64) Config {
	cfg := DefaultConfig()
	if sw.Config != nil {
		cfg = *sw.Config
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg
}

// effectiveSeeds resolves the sweep's seed axis: Seeds deduplicated in
// order when set, otherwise the single-replicate axis {Seed}.
func (sw *Sweep) effectiveSeeds() []int64 {
	if len(sw.Seeds) == 0 {
		return []int64{sw.Seed}
	}
	seen := make(map[int64]bool, len(sw.Seeds))
	out := make([]int64, 0, len(sw.Seeds))
	for _, s := range sw.Seeds {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Stream starts the sweep and returns a channel that delivers every cell's
// Result exactly once, as it completes (completion order, not grid order —
// use ResultSet for deterministic ordering). The channel is closed once
// the sweep finishes; it is buffered for the full cross-product, so a
// consumer that stops reading never blocks a worker or leaks a goroutine.
//
// Failed runs are delivered like successful ones, with Result.Error /
// Result.Err set. Cancelling ctx stops the sweep promptly: in-flight
// simulations abort and are delivered as failed cells, unstarted cells are
// never delivered, and the channel is closed after the last in-flight cell
// lands.
func (sw *Sweep) Stream(ctx context.Context) <-chan *Result {
	seeds := sw.effectiveSeeds()
	total := len(sw.Benchmarks) * len(sw.Models) * len(seeds)
	out := make(chan *Result, total)
	if total == 0 {
		close(out)
		return out
	}

	workers := sw.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	// Serialise the user's progress hook across workers.
	var progress func(ProgressEvent)
	if sw.Progress != nil {
		var mu sync.Mutex
		progress = func(ev ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			sw.Progress(ev)
		}
	}

	jobCh := make(chan sweepJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				if job.capture != nil {
					job.capture.captureOnce(ctx, sw.Gate)
					continue
				}
				if res := sw.runOne(ctx, job, progress); res != nil {
					out <- res
				}
			}
		}()
	}

	go func() {
		defer func() {
			close(jobCh)
			wg.Wait()
			close(out)
		}()
		send := func(job sweepJob) bool {
			select {
			case jobCh <- job:
				return true
			case <-ctx.Done():
				return false
			}
		}
		// One build per benchmark; every seed row — and every model cell
		// within it — shares the immutable program. Benchmark b's capture
		// is queued ahead of benchmark b-1's cells, so the warm-up pass
		// overlaps b-1's simulations instead of stalling b's cells.
		cells := func(g *sweepGroup) bool {
			for i, seed := range seeds {
				for _, m := range sw.Models {
					if !send(sweepJob{row: sweepRow{g, seed, i}, model: m}) {
						return false
					}
				}
			}
			return true
		}
		var prev *sweepGroup
		for _, bm := range sw.Benchmarks {
			prog, err := buildProgram(bm, sw.TargetInsts)
			g := &sweepGroup{sw: sw, bench: bm.Name, seeds: seeds, prog: prog,
				buildErr: err, recorded: bm.Recorded, warmup: sw.warmupFor(bm.Name),
				provided: sw.Snapshots[bm.Name]}
			if g.needsCapture() && !send(sweepJob{capture: g}) {
				return
			}
			if prev != nil && !cells(prev) {
				return
			}
			prev = g
		}
		cells(prev)
	}()
	return out
}

// Run executes the sweep (via Stream) and returns the result set. Failed
// runs are captured per-cell (Result.Error / Result.Err) rather than
// aborting the sweep; inspect them with ResultSet.Err. Cancelling ctx
// stops the sweep promptly — in-flight simulations abort and unstarted
// cells stay absent — and Run returns the partial set together with
// ctx.Err().
func (sw *Sweep) Run(ctx context.Context) (*ResultSet, error) {
	benchNames := make([]string, len(sw.Benchmarks))
	for i, bm := range sw.Benchmarks {
		benchNames[i] = bm.Name
	}
	modelNames := make([]string, len(sw.Models))
	for i, m := range sw.Models {
		modelNames[i] = m.Name
	}
	rs := NewResultSetGrid(benchNames, modelNames, sw.effectiveSeeds())
	for res := range sw.Stream(ctx) {
		rs.Add(res)
	}
	return rs, ctx.Err()
}

// runOne simulates one cell and returns its Result; a cell that never
// started (sweep already cancelled) returns nil.
func (sw *Sweep) runOne(ctx context.Context, job sweepJob, progress func(ProgressEvent)) *Result {
	if ctx.Err() != nil {
		return nil
	}
	row := job.row
	fail := func(err error) *Result {
		return &Result{
			Benchmark: row.bench,
			Model:     job.model.Name,
			Seed:      row.seed,
			Error:     err.Error(),
			err:       err,
		}
	}
	if row.buildErr != nil {
		return fail(fmt.Errorf("tracep: %s: %w", row.bench, row.buildErr))
	}
	// The benchmark's one warm-up capture runs under its own gate slot (see
	// sweepGroup.captureOnce); a cell whose warm-up was abandoned by
	// cancellation never started, so — like a cell still waiting for a
	// slot below — it is not delivered.
	snap, err := row.snapshot(ctx, sw.Gate)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return fail(fmt.Errorf("tracep: %s: %w", row.bench, err))
	}
	// Failed builds and warm-ups above are delivered without a slot — only
	// real simulation counts against the shared gate.
	if !sw.Gate.acquire(ctx) {
		return nil
	}
	defer sw.Gate.release()
	// Every cell runs under its row's cellConfig — the exact configuration
	// the row snapshot is captured with, so capture and restore cannot
	// drift.
	opts := []Option{WithModel(job.model), WithLabel(row.bench), WithConfig(sw.cellConfig(row.seed))}
	if snap != nil {
		opts = append(opts, WithSnapshot(snap))
	}
	if progress != nil {
		opts = append(opts, WithProgress(progress))
		if sw.ProgressInterval > 0 {
			opts = append(opts, WithProgressInterval(sw.ProgressInterval))
		}
	}
	sim := New(row.prog, opts...)
	// Recorded-trace rows verify against their .tptrace stream; New takes
	// the prebuilt program, so the recording handle travels on the row.
	sim.recorded = row.recorded
	res, err := sim.Run(ctx)
	if err != nil {
		return fail(err)
	}
	res.Seed = row.seed
	return res
}
