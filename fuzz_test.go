package tracep_test

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"tracep"
)

// FuzzParseTolerances drives the -tolerances flag and Spec.Tolerances
// encoding with arbitrary strings. The invariants: ParseTolerances never
// panics, every value it accepts is finite and >= 0 (a NaN would switch a
// check off, a negative one would fail cells that did not regress), and the
// accepted value's JSON parses back to the same value. CI runs this briefly
// every push; testdata/fuzz/FuzzParseTolerances holds the seed corpus.
func FuzzParseTolerances(f *testing.F) {
	for _, s := range []string{
		"", "ipc=2", "ipc=2, tmisp=0.5, recoveries=10, miss=1.5", "allow-missing",
		"ipc=NaN,tmisp=nan,miss=NaN", "ipc=-1", "recoveries=inf", `{"ipc_pct":2,"allow_missing":true}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tol, err := tracep.ParseTolerances(spec)
		if err != nil {
			return
		}
		for _, v := range []float64{tol.IPCPct, tol.TraceMispPer1000, tol.RecoveriesPct, tol.CacheMissPer1000} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("ParseTolerances(%q) accepted %+v", spec, tol)
			}
		}
		data, err := json.Marshal(tol)
		if err != nil {
			t.Fatal(err)
		}
		again, err := tracep.ParseTolerances(string(data))
		if err != nil || again != tol {
			t.Fatalf("ParseTolerances(%s) = %+v, %v; want %+v", data, again, err, tol)
		}
	})
}

// FuzzSpec drives tracepd's POST /v1/sweeps body — a JSON tracep.Spec —
// through Resolve. The invariants: Resolve never panics, fails only with
// ErrInvalidSpec or ErrUnknownCorpus, and every row of a resolved grid
// resolves again on its own: a suite or scenario row as a one-element
// Benchmarks spec, a corpus row as a one-element Corpus spec. That round
// trip is what lets tracepd's journal and the cluster coordinator carry
// any row by name. testdata/fuzz/FuzzSpec holds the seed corpus.
func FuzzSpec(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"benchmarks":["compress"],"models":["base"],"target_insts":5000}`,
		`{"scenarios":["mixed","ptr-chase"],"scenario_seeds":[1,-2],"benchmarks":["vortex"],"corpus":["rec"]}`,
		`{"benchmarks":["dense-branch-3","long-dep--9"],"seeds":[3,1,3]}`,
		`{"benchmarks":["li"],"warmup_for":{"li":0,"gcc":1}}`,
		`{"corpus":["rec"],"snapshots":{"rec":"k"},"tolerances":{"ipc_pct":-1}}`,
	} {
		f.Add([]byte(s))
	}
	corpus := specCorpus()
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec tracep.Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		sw, err := spec.Resolve(corpus)
		if err != nil {
			if !errors.Is(err, tracep.ErrInvalidSpec) && !errors.Is(err, tracep.ErrUnknownCorpus) {
				t.Fatalf("Resolve: untyped error %v", err)
			}
			return
		}
		for _, bm := range sw.Benchmarks {
			one := tracep.Spec{Benchmarks: []string{bm.Name}}
			if _, ok := corpus[bm.Name]; ok {
				one = tracep.Spec{Corpus: []string{bm.Name}}
			}
			again, err := one.Resolve(corpus)
			if err != nil || len(again.Benchmarks) != 1 || again.Benchmarks[0].Name != bm.Name {
				t.Fatalf("row %q does not resolve again: %v", bm.Name, err)
			}
		}
	})
}
