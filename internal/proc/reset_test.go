package proc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"tracep/internal/bench"
	"tracep/internal/isa"
	"tracep/internal/tracefile"
)

// resetCell is one simulation in TestResetMatchesFresh's sequence.
type resetCell struct {
	bench    string
	model    Model
	cfg      Config
	warm     bool   // restore from the benchmark's warm-up snapshot
	maxInsts uint64 // 0 runs to halt
	cancel   bool   // run under an already cancelled context
	recorded bool   // verify against a recorded trace instead of the emulator
	audit    bool   // audit tag lifetimes after every Step
}

func (c resetCell) String() string {
	return fmt.Sprintf("%s/%s warm=%v seed=%d verify=%v vp=%v pes=%d len=%d max=%d cancel=%v recorded=%v",
		c.bench, c.model.Name, c.warm, c.cfg.Seed, c.cfg.Verify, c.cfg.ValuePredict,
		c.cfg.NumPEs, c.cfg.MaxTraceLen, c.maxInsts, c.cancel, c.recorded)
}

// resetCells is a fixed, shuffled sequence covering every benchmark ×
// model, cold and warm, with the seed and Verify varying from cell to cell;
// a few cells then switch on the value predictor, shrink the machine,
// verify against a recording, or stop early.
func resetCells() []resetCell {
	var cells []resetCell
	for _, bm := range bench.Suite() {
		for _, m := range allModels {
			for _, warm := range []bool{false, true} {
				cfg := testConfig()
				cfg.Seed = int64(len(cells) % 3)
				cfg.Verify = len(cells)%4 != 3
				cells = append(cells, resetCell{bench: bm.Name, model: m, cfg: cfg, warm: warm})
			}
		}
	}
	rand.New(rand.NewSource(13)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	for i := 10; i < 14; i++ {
		cells[i].cfg.ValuePredict = true
	}
	for i := 20; i < 24; i++ {
		cells[i].cfg.NumPEs, cells[i].cfg.MaxTraceLen = 8, 16
	}
	cells[30].maxInsts = 3000
	cells[40].cancel = true
	cells[50].recorded, cells[50].warm, cells[50].cfg.Verify = true, false, true
	for i := range cells {
		cells[i].audit = i%16 == 5
	}
	return cells
}

// runCell runs p as the cell prescribes and returns what RunContext
// would: under audit, Steps one at a time and checks tag lifetimes after
// each.
func runCell(t *testing.T, p *Processor, c resetCell, trace string) (*Stats, error) {
	t.Helper()
	if c.recorded {
		src, err := tracefile.OpenFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		p.SetCommitSource(src)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if c.cancel {
		cancel()
	}
	if !c.audit {
		return p.RunContext(ctx, c.maxInsts, 0, nil)
	}
	var a tagAudit
	for !p.done && p.err == nil {
		p.Step()
		if err := a.check(p); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if c.maxInsts > 0 && p.Stats.RetiredInsts >= c.maxInsts {
			break
		}
	}
	p.Stats.Cycles = uint64(p.cycle)
	p.finalizeStats()
	stats := p.Stats
	return &stats, p.err
}

// TestResetMatchesFresh: one engine, reset in place through a shuffled
// sequence of cells — every benchmark × model, cold and restored, under
// changing seeds, Verify, value prediction, machine shape and oracle, some
// cells stopped mid-flight — yields for every cell exactly the statistics
// of a freshly built engine. Any state a reset misses leaks from one cell
// into the next and shows here.
func TestResetMatchesFresh(t *testing.T) {
	const insts, warmup = 12_000, 3_000
	progs := make(map[string]*isa.Program)
	for _, bm := range bench.Suite() {
		progs[bm.Name] = bm.Build(bm.ScaleFor(insts))
	}
	snaps := make(map[string]*Snapshot)
	snapshot := func(c resetCell) *Snapshot {
		key := fmt.Sprint(c.bench, c.cfg.Seed, c.cfg.ValuePredict, c.cfg.MaxTraceLen)
		if snaps[key] == nil {
			snap, err := CaptureSnapshot(context.Background(), progs[c.bench], c.cfg, warmup)
			if err != nil {
				t.Fatal(err)
			}
			snaps[key] = snap
		}
		return snaps[key]
	}

	cells := resetCells()
	trace := filepath.Join(t.TempDir(), "recorded.tptrace")
	f, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	rc := cells[50]
	if _, err := tracefile.Capture(context.Background(), f, progs[rc.bench], tracefile.Meta{Name: rc.bench}, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	engine := new(Processor)
	for i, c := range cells {
		var fresh *Processor
		if c.warm {
			snap := snapshot(c)
			if fresh, err = NewFromSnapshot(snap, c.model, c.cfg); err != nil {
				t.Fatal(err)
			}
			if err := engine.Restore(snap, c.model, c.cfg); err != nil {
				t.Fatal(err)
			}
		} else {
			fresh = New(progs[c.bench], c.model, c.cfg)
			engine.Reset(progs[c.bench], c.model, c.cfg)
		}
		want, wantErr := runCell(t, fresh, resetCell{recorded: c.recorded, maxInsts: c.maxInsts, cancel: c.cancel}, trace)
		got, gotErr := runCell(t, engine, c, trace)
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("cell %d %v: error %v, fresh engine %v", i, c, gotErr, wantErr)
		}
		if c.cancel && !errors.Is(gotErr, context.Canceled) {
			t.Fatalf("cell %d %v: cancelled run returned %v", i, c, gotErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d %v: reused engine diverges from a fresh one\ngot:  %+v\nwant: %+v", i, c, *got, *want)
		}
		if i%2 == 1 {
			engine.Detach() // as the engine pool does between runs
		}
	}
}

// TestResetAllocs is the allocation gate for engine reuse: once an engine
// has run a cell, resetting it into a same-shaped configuration — cold or
// restored from a snapshot — reuses every table and arena, allocating only a
// few small objects. Rebuilding instead allocates the 2.6 MB next-trace
// predictor alone.
func TestResetAllocs(t *testing.T) {
	bm, err := bench.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog := bm.Build(bm.ScaleFor(60_000))
	cfg := testConfig()
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	p := New(prog, ModelFGMLBRET, cfg)
	resets := []struct {
		name  string
		reset func()
	}{
		{"cold", func() { p.Reset(prog, ModelFGMLBRET, cfg) }},
		{"restore", func() {
			if err := p.Restore(snap, ModelFGMLBRET, cfg); err != nil {
				t.Fatal(err)
			}
		}},
	}
	const maxBytes, maxObjects = 64 << 10, 16
	for _, r := range resets {
		t.Run(r.name, func(t *testing.T) {
			// One warm cell, then the reset that follows it.
			if _, err := p.Run(20_000); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.reset()
			runtime.ReadMemStats(&after)
			bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
			// Back to back, resets are a fixed cost.
			allocs := testing.AllocsPerRun(5, r.reset)
			t.Logf("%s: %d B in %d objects after a warm cell; %.0f objects per repeated reset", r.name, bytes, objects, allocs)
			if bytes > maxBytes || objects > maxObjects || allocs > maxObjects {
				t.Errorf("%s reset allocates %d B in %d objects (%.0f repeated); want <= %d B and <= %d objects",
					r.name, bytes, objects, allocs, maxBytes, maxObjects)
			}
		})
	}
}

// BenchmarkRestore reports the cost of restoring a warmed snapshot into a
// reused engine (-benchmem tracks the bytes the reuse saves).
func BenchmarkRestore(b *testing.B) {
	bm, err := bench.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	snap, err := CaptureSnapshot(context.Background(), bm.Build(bm.ScaleFor(200_000)), cfg, 100_000)
	if err != nil {
		b.Fatal(err)
	}
	p := new(Processor)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Restore(snap, ModelFGMLBRET, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
