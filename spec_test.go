package tracep_test

import (
	"errors"
	"reflect"
	"testing"

	"tracep"
)

// specCorpus is a one-recording corpus for Resolve: Resolve only looks
// names up, so a renamed generated workload stands in for a recording.
func specCorpus() map[string]tracep.Benchmark {
	rec := tracep.Generated(tracep.DefaultGenConfig(9))
	rec.Name = "rec"
	return map[string]tracep.Benchmark{"rec": rec}
}

func benchNamesOf(bms []tracep.Benchmark) []string {
	names := make([]string, len(bms))
	for i, bm := range bms {
		names[i] = bm.Name
	}
	return names
}

func modelNamesOf(ms []tracep.Model) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

// TestSpecResolve covers Resolve's defaults, row order, seed dedupe, the
// instance-name round trip and every error type.
func TestSpecResolve(t *testing.T) {
	suite := benchNamesOf(tracep.Benchmarks())
	all := modelNamesOf(tracep.Models())
	cases := []struct {
		name    string
		spec    tracep.Spec
		rows    []string
		models  []string
		seeds   []int64
		wantErr error
	}{
		{name: "defaults", spec: tracep.Spec{}, rows: suite, models: all},
		{
			name: "row order",
			spec: tracep.Spec{
				Scenarios: []string{"mixed", "ptr-chase"}, ScenarioSeeds: []int64{2, -3},
				Benchmarks: []string{"vortex", "compress"}, Corpus: []string{"rec"},
				Models: []string{"FG", "base"},
			},
			rows:   []string{"mixed-2", "mixed--3", "ptr-chase-2", "ptr-chase--3", "vortex", "compress", "rec"},
			models: []string{"FG", "base"},
		},
		{name: "scenario seed default", spec: tracep.Spec{Scenarios: []string{"long-dep"}}, rows: []string{"long-dep-1"}, models: all},
		{name: "corpus only", spec: tracep.Spec{Corpus: []string{"rec"}}, rows: []string{"rec"}, models: all},
		{
			name: "instance names resolve through benchmarks",
			spec: tracep.Spec{Benchmarks: []string{"dense-branch-7", "mixed--1", "gcc"}},
			rows: []string{"dense-branch-7", "mixed--1", "gcc"}, models: all,
		},
		{
			name: "seeds deduplicated",
			spec: tracep.Spec{Benchmarks: []string{"li"}, Seeds: []int64{3, 1, 3, 1}},
			rows: []string{"li"}, models: all, seeds: []int64{3, 1},
		},
		{
			name: "warmup_for names a corpus row",
			spec: tracep.Spec{Benchmarks: []string{"li"}, Corpus: []string{"rec"}, WarmupFor: map[string]uint64{"rec": 100}},
			rows: []string{"li", "rec"}, models: all,
		},
		{
			name: "warmup_for names a scenario instance",
			spec: tracep.Spec{Scenarios: []string{"mixed"}, WarmupFor: map[string]uint64{"mixed-1": 0}},
			rows: []string{"mixed-1"}, models: all,
		},
		{name: "unknown benchmark", spec: tracep.Spec{Benchmarks: []string{"nonesuch"}}, wantErr: tracep.ErrInvalidSpec},
		{name: "non-canonical instance", spec: tracep.Spec{Benchmarks: []string{"mixed-01"}}, wantErr: tracep.ErrInvalidSpec},
		{name: "family without seed", spec: tracep.Spec{Benchmarks: []string{"mixed"}}, wantErr: tracep.ErrInvalidSpec},
		{name: "unknown scenario", spec: tracep.Spec{Scenarios: []string{"nonesuch"}}, wantErr: tracep.ErrInvalidSpec},
		{name: "unknown model", spec: tracep.Spec{Models: []string{"nonesuch"}}, wantErr: tracep.ErrInvalidSpec},
		{name: "unknown corpus", spec: tracep.Spec{Corpus: []string{"nonesuch"}}, wantErr: tracep.ErrUnknownCorpus},
		{name: "duplicate benchmark", spec: tracep.Spec{Benchmarks: []string{"li", "li"}}, wantErr: tracep.ErrInvalidSpec},
		{
			name:    "scenario row repeated in benchmarks",
			spec:    tracep.Spec{Scenarios: []string{"mixed"}, Benchmarks: []string{"mixed-1"}},
			wantErr: tracep.ErrInvalidSpec,
		},
		{name: "duplicate scenario seed", spec: tracep.Spec{Scenarios: []string{"mixed"}, ScenarioSeeds: []int64{4, 4}}, wantErr: tracep.ErrInvalidSpec},
		{
			name:    "warmup_for outside the grid",
			spec:    tracep.Spec{Benchmarks: []string{"li"}, WarmupFor: map[string]uint64{"gcc": 1}},
			wantErr: tracep.ErrInvalidSpec,
		},
		{
			name:    "snapshots outside the grid",
			spec:    tracep.Spec{Benchmarks: []string{"li"}, Snapshots: map[string]string{"gcc": "k"}},
			wantErr: tracep.ErrInvalidSpec,
		},
		{name: "negative tolerance", spec: tracep.Spec{Tolerances: &tracep.Tolerances{IPCPct: -1}}, wantErr: tracep.ErrInvalidSpec},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sw, err := c.spec.Resolve(specCorpus())
			if c.wantErr != nil {
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("Resolve error = %v, want %v", err, c.wantErr)
				}
				other := tracep.ErrUnknownCorpus
				if c.wantErr == tracep.ErrUnknownCorpus {
					other = tracep.ErrInvalidSpec
				}
				if errors.Is(err, other) {
					t.Errorf("Resolve error %v also wraps %v", err, other)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := benchNamesOf(sw.Benchmarks); !reflect.DeepEqual(got, c.rows) {
				t.Errorf("rows = %v, want %v", got, c.rows)
			}
			if got := modelNamesOf(sw.Models); !reflect.DeepEqual(got, c.models) {
				t.Errorf("models = %v, want %v", got, c.models)
			}
			if !reflect.DeepEqual(sw.Seeds, c.seeds) {
				t.Errorf("seeds = %v, want %v", sw.Seeds, c.seeds)
			}
			// Every non-corpus row name resolves again on its own.
			for _, bm := range sw.Benchmarks {
				if bm.Name == "rec" {
					continue
				}
				if _, err := (tracep.Spec{Benchmarks: []string{bm.Name}}).Resolve(nil); err != nil {
					t.Errorf("row %q does not resolve through Benchmarks: %v", bm.Name, err)
				}
			}
		})
	}
}
