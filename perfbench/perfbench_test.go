package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailOf(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so tailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		p     float64
		value float64
		ok    bool
	}{
		// 200 samples: p95 is rank 190, with 10 beyond; p99 has only 2.
		{200, 95, 190, true},
		// 100 samples: p95 leaves 5 beyond, p90 (rank 90) leaves 10.
		{100, 90, 90, true},
		// 40 samples: p75 is rank 30, 10 beyond.
		{40, 75, 30, true},
		// 20 samples: only the median (rank 10) has 10 beyond.
		{20, 50, 10, true},
		// 19 samples: even the median has only 9 beyond.
		{19, 0, 0, false},
		{0, 0, 0, false},
	} {
		got := tailOf(seq(tc.n))
		if got.OK != tc.ok || got.N != tc.n || (tc.ok && (got.P != tc.p || got.Value != tc.value)) {
			t.Errorf("n=%d: got %+v, want p%g=%g ok=%v", tc.n, got, tc.p, tc.value, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {nil, 0}} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "cell", Start: ms(0), End: ms(100)},
		// Two overlapping children cover 10..50 together: 40 ms.
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)},
		// A nested grandchild is subtracted from b only.
		{ID: 4, Parent: 3, Name: "c", Start: ms(25), End: ms(35)},
		// A child sticking out of its parent counts only inside it: 90..100.
		{ID: 5, Parent: 1, Name: "d", Start: ms(90), End: ms(120)},
	}
	want := map[int]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(10), 5: ms(30)}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
	lt := layerTimes(spans)
	if l := lt["cell"]; l.Calls != 1 || l.Total != ms(100) || l.Own != ms(50) {
		t.Errorf("layer cell = %+v", l)
	}
}

func TestRecorderSpans(t *testing.T) {
	rec := newRecorder()
	rec.do("outer", "t1", 0, func(id int) {
		rec.do("inner", "t1", id, func(int) {})
	})
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Trace != spans[1].Trace {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s not closed: %+v", s.Name, s)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"setup_s", "proc.ns_per_cycle", "paper-grid", "0ok"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_lead", ".lead", "has space", "slash/es", "pct%", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !validName(m.Name) {
				t.Errorf("metric %q has an invalid name", m.Name)
			}
		}
	}
	for name := range workloads {
		if !validName(name) {
			t.Errorf("workload %q has an invalid name", name)
		}
	}
}

func TestCIGain(t *testing.T) {
	// hmean{1,2,4} = 3/1.75 = 12/7; hmean{2,2,4} = 3/1.25 = 2.4;
	// 2.4 / (12/7) = 1.4, a 40% gain.
	base, ci := []float64{1, 2, 4}, []float64{2, 2, 4}
	if got := hmean(base); math.Abs(got-12.0/7) > 1e-12 {
		t.Errorf("hmean(base) = %g", got)
	}
	if got := ciGainPct(base, ci); math.Abs(got-40) > 1e-9 {
		t.Errorf("ciGainPct = %g, want 40", got)
	}
	if got := ciGainPct([]float64{2}, []float64{1}); math.Abs(got+50) > 1e-9 {
		t.Errorf("ciGainPct of a halving = %g, want -50", got)
	}
	if hmean(nil) != 0 || hmean([]float64{1, 0}) != 0 {
		t.Error("hmean of no samples or a zero sample must be 0")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	var spec benchmarkSpec
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	for _, v := range []any{&spec, &doc} {
		if err := readJSON(filepath.Join("..", "BENCHMARK.json"), v); err != nil {
			t.Fatal(err)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the program %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("spec.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
	}})
	host := hostInfo{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOGC: "100", CPUModel: "x"}
	result := func(h hostInfo, ms float64) resultFile {
		return resultFile{Workload: "paper-grid", Host: h, summary: summary{Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"job_p50_ms": {Value: ms, Unit: "ms"}}}}
	}
	old := write("old.json", result(host, 100))
	var sb strings.Builder
	if err := compareFiles(&sb, old, write("same.json", result(host, 105)), spec); err != nil {
		t.Errorf("5%% slower within a 10%% bound: %v", err)
	}
	if err := compareFiles(&sb, old, write("slow.json", result(host, 120)), spec); err == nil {
		t.Error("20% slower passed a 10% bound")
	}
	other := host
	other.NumCPU, other.GOMAXPROCS = 8, 8
	err := compareFiles(&sb, old, write("other.json", result(other, 100)), spec)
	if err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Errorf("results from different hosts compared: %v", err)
	}
	seeded := host
	seeded.Seed, seeded.Commit = 7, "abc"
	if err := compareFiles(&sb, old, write("seeded.json", result(seeded, 100)), spec); err != nil {
		t.Errorf("seed and commit are not host: %v", err)
	}
}
