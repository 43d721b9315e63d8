// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6). Each benchmark simulates the relevant
// (workload, model) cells and reports the paper's metric as custom benchmark
// metrics (IPC, %-improvement, rates), so
//
//	go test -bench=Table3 -benchmem
//
// regenerates the corresponding rows. cmd/experiments prints the same data
// as formatted tables.
package tracep_test

import (
	"context"
	"fmt"
	"testing"

	"tracep"
)

// benchBudget is the per-run dynamic instruction budget for benchmarks. The
// paper runs 100-200M instructions; statistics for these kernels stabilise
// around 100k-1M (see EXPERIMENTS.md).
const benchBudget = 50_000

func runCell(b *testing.B, bmName string, model tracep.Model) *tracep.Stats {
	b.Helper()
	bm, err := tracep.BenchmarkByName(bmName)
	if err != nil {
		b.Fatal(err)
	}
	var stats *tracep.Stats
	for i := 0; i < b.N; i++ {
		res, err := tracep.NewBenchmark(bm, benchBudget, tracep.WithModel(model)).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		stats = res.Stats
	}
	return stats
}

// BenchmarkTable3 regenerates Table 3: IPC without control independence
// under the four trace-selection configurations.
func BenchmarkTable3(b *testing.B) {
	for _, bm := range tracep.Benchmarks() {
		for _, model := range tracep.SelectionModels() {
			b.Run(fmt.Sprintf("%s/%s", bm.Name, model.Name), func(b *testing.B) {
				s := runCell(b, bm.Name, model)
				b.ReportMetric(s.IPC(), "IPC")
			})
		}
	}
}

// BenchmarkTable4 regenerates Table 4: the impact of trace selection on
// trace length, trace mispredictions and trace cache misses.
func BenchmarkTable4(b *testing.B) {
	for _, bm := range tracep.Benchmarks() {
		for _, model := range tracep.SelectionModels() {
			b.Run(fmt.Sprintf("%s/%s", bm.Name, model.Name), func(b *testing.B) {
				s := runCell(b, bm.Name, model)
				b.ReportMetric(s.AvgTraceLen(), "traceLen")
				b.ReportMetric(s.TraceMispPer1000(), "traceMisp/1k")
				b.ReportMetric(s.TCMissPer1000(), "tc$miss/1k")
			})
		}
	}
}

// BenchmarkTable5 regenerates Table 5: conditional branch statistics under
// the base model.
func BenchmarkTable5(b *testing.B) {
	for _, bm := range tracep.Benchmarks() {
		b.Run(bm.Name, func(b *testing.B) {
			s := runCell(b, bm.Name, tracep.ModelBase)
			fg := s.FGCISmall()
			cond := s.CondBranches()
			misp := s.CondMispredictions()
			if cond > 0 {
				b.ReportMetric(100*float64(fg.Dynamic)/float64(cond), "fgci-frac-br-%")
				b.ReportMetric(100*float64(s.Backward().Dynamic)/float64(cond), "backward-frac-br-%")
			}
			if misp > 0 {
				b.ReportMetric(100*float64(fg.Mispredicted)/float64(misp), "fgci-frac-misp-%")
				b.ReportMetric(100*float64(s.Backward().Mispredicted)/float64(misp), "backward-frac-misp-%")
			}
			b.ReportMetric(100*s.BranchMispRate(), "misp-rate-%")
			b.ReportMetric(s.BranchMispPer1000(), "misp/1k")
		})
	}
}

// BenchmarkFigure9 regenerates Figure 9: % IPC improvement of the
// selection-only models over base.
func BenchmarkFigure9(b *testing.B) {
	for _, bm := range tracep.Benchmarks() {
		for _, model := range tracep.SelectionModels()[1:] {
			b.Run(fmt.Sprintf("%s/%s", bm.Name, model.Name), func(b *testing.B) {
				var imp float64
				for i := 0; i < b.N; i++ {
					bmk, err := tracep.BenchmarkByName(bm.Name)
					if err != nil {
						b.Fatal(err)
					}
					base, err := tracep.NewBenchmark(bmk, benchBudget).Run(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					res, err := tracep.NewBenchmark(bmk, benchBudget, tracep.WithModel(model)).Run(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					imp = 100 * (res.Stats.IPC() - base.Stats.IPC()) / base.Stats.IPC()
				}
				b.ReportMetric(imp, "improvement-%")
			})
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10: % IPC improvement of the four
// control-independence models over base — the paper's headline result.
func BenchmarkFigure10(b *testing.B) {
	for _, bm := range tracep.Benchmarks() {
		for _, model := range tracep.CIModels() {
			b.Run(fmt.Sprintf("%s/%s", bm.Name, model.Name), func(b *testing.B) {
				var imp, ipc float64
				for i := 0; i < b.N; i++ {
					bmk, err := tracep.BenchmarkByName(bm.Name)
					if err != nil {
						b.Fatal(err)
					}
					base, err := tracep.NewBenchmark(bmk, benchBudget).Run(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					res, err := tracep.NewBenchmark(bmk, benchBudget, tracep.WithModel(model)).Run(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					imp = 100 * (res.Stats.IPC() - base.Stats.IPC()) / base.Stats.IPC()
					ipc = res.Stats.IPC()
				}
				b.ReportMetric(imp, "improvement-%")
				b.ReportMetric(ipc, "IPC")
			})
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// instructions per host second) — an engineering metric, not a paper result.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bm, err := tracep.BenchmarkByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prog := bm.Build(bm.ScaleFor(benchBudget))
	sim := tracep.New(prog, tracep.WithVerify(false))
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Stats.RetiredInsts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkAblationValuePrediction measures the effect of the optional
// live-in value predictor (Figure 2's box; DESIGN.md §1) on top of full
// control independence.
func BenchmarkAblationValuePrediction(b *testing.B) {
	bm, err := tracep.BenchmarkByName("go")
	if err != nil {
		b.Fatal(err)
	}
	prog := bm.Build(bm.ScaleFor(benchBudget))
	for _, vp := range []bool{false, true} {
		b.Run(fmt.Sprintf("vpred=%v", vp), func(b *testing.B) {
			cfg := tracep.DefaultConfig()
			cfg.ValuePredict = vp
			sim := tracep.New(prog, tracep.WithConfig(cfg), tracep.WithModel(tracep.ModelFGMLBRET))
			var ipc float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				ipc = res.Stats.IPC()
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAblationPEs sweeps the processing-element count — the paper
// simulates 16 PEs "in anticipation of future large instruction windows",
// where control independence matters more.
func BenchmarkAblationPEs(b *testing.B) {
	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	prog := bm.Build(bm.ScaleFor(benchBudget))
	for _, pes := range []int{4, 8, 16} {
		for _, model := range []tracep.Model{tracep.ModelBase, tracep.ModelFGMLBRET} {
			b.Run(fmt.Sprintf("pes=%d/%s", pes, model.Name), func(b *testing.B) {
				cfg := tracep.DefaultConfig()
				cfg.NumPEs = pes
				sim := tracep.New(prog, tracep.WithConfig(cfg), tracep.WithModel(model))
				var ipc float64
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					ipc = res.Stats.IPC()
				}
				b.ReportMetric(ipc, "IPC")
			})
		}
	}
}

// BenchmarkAblationTraceLen sweeps the maximum trace length (and hence PE
// window size), an axis Table 5's ">32" classification depends on.
func BenchmarkAblationTraceLen(b *testing.B) {
	bm, err := tracep.BenchmarkByName("jpeg")
	if err != nil {
		b.Fatal(err)
	}
	prog := bm.Build(bm.ScaleFor(benchBudget))
	for _, maxLen := range []int{16, 32} {
		b.Run(fmt.Sprintf("len=%d", maxLen), func(b *testing.B) {
			cfg := tracep.DefaultConfig()
			cfg.MaxTraceLen = maxLen
			sim := tracep.New(prog, tracep.WithConfig(cfg), tracep.WithModel(tracep.ModelFGMLBRET))
			var ipc float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				ipc = res.Stats.IPC()
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAblationOracle quantifies the cost of running the architectural
// oracle alongside the timing model.
func BenchmarkAblationOracle(b *testing.B) {
	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	prog := bm.Build(bm.ScaleFor(benchBudget))
	for _, verify := range []bool{true, false} {
		b.Run(fmt.Sprintf("verify=%v", verify), func(b *testing.B) {
			sim := tracep.New(prog, tracep.WithModel(tracep.ModelFGMLBRET), tracep.WithVerify(verify))
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepParallelism measures the experiment harness itself: the
// full (8 workload × 4 model) selection sweep at increasing worker counts.
// sim-insts/s should scale with the pool until the host runs out of cores.
func BenchmarkSweepParallelism(b *testing.B) {
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				sw := tracep.Sweep{
					Benchmarks:  tracep.Benchmarks(),
					Models:      tracep.SelectionModels(),
					TargetInsts: benchBudget,
					Parallelism: j,
				}
				rs, err := sw.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if err := rs.Err(); err != nil {
					b.Fatal(err)
				}
				for _, res := range rs.Results() {
					insts += res.Stats.RetiredInsts
				}
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
		})
	}
}

// BenchmarkWarmupSnapshot quantifies the checkpoint subsystem: an 8-model
// sweep over one benchmark whose warm-up region dwarfs its measured region.
// "shared" captures one snapshot per benchmark and forks all eight cells
// from it (Sweep.Warmup); "per-cell" simulates the same warm-up from cold
// in every cell (WithWarmup). Both produce byte-identical ResultSets — the
// wall-clock gap is pure snapshot-sharing win, roughly (cells-1) warm-ups.
// "seeds" runs the 8 models under 4 seeds on two workers: one functional
// pass captures all four seed rows' snapshots.
func BenchmarkWarmupSnapshot(b *testing.B) {
	const targetInsts, warm = 520_000, 500_000
	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	models := tracep.Models()

	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sw := tracep.Sweep{
				Benchmarks:  []tracep.Benchmark{bm},
				Models:      models,
				TargetInsts: targetInsts,
				Warmup:      warm,
				Parallelism: 1,
			}
			rs, err := sw.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if err := rs.Err(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("seeds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sw := tracep.Sweep{
				Benchmarks:  []tracep.Benchmark{bm},
				Models:      models,
				TargetInsts: targetInsts,
				Warmup:      warm,
				Seeds:       []int64{1, 2, 3, 4},
				Parallelism: 2,
			}
			rs, err := sw.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if err := rs.Err(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("per-cell", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range models {
				res, err := tracep.NewBenchmark(bm, targetInsts,
					tracep.WithModel(m), tracep.WithWarmup(warm)).Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.WarmupInsts != warm {
					b.Fatalf("missing warm-up metadata: %d", res.Stats.WarmupInsts)
				}
			}
		}
	})
}
