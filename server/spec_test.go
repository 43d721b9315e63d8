package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"tracep"
	"tracep/server"
)

// scenarioSpec is a grid with scenario rows ahead of a suite row: what
// paperfigs runs, requested by name over the wire.
func scenarioSpec(target uint64) server.SweepRequest {
	return server.SweepRequest{
		Scenarios:     []string{"mixed", "dense-branch"},
		ScenarioSeeds: []int64{1, 2},
		Benchmarks:    []string{"compress"},
		Models:        []string{"base", "FG+MLB-RET"},
		TargetInsts:   target,
	}
}

// specJSON resolves and runs spec in-process and marshals the set: the
// byte-identity reference for every remote path.
func specJSON(t *testing.T, spec tracep.Spec) []byte {
	t.Helper()
	sw, err := spec.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScenarioRowsOverWire: scenario families requested by name stream
// back byte-identical to in-process Resolve+Run, and Status reports every
// row by the name that resolves it again.
func TestScenarioRowsOverWire(t *testing.T) {
	c := newTestServer(t, server.Config{Parallelism: 2})
	spec := scenarioSpec(5_000)
	st, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []string{"mixed-1", "mixed-2", "dense-branch-1", "dense-branch-2", "compress"}
	if !reflect.DeepEqual(st.Benchmarks, wantRows) || st.Total != 10 {
		t.Errorf("status rows = %v (total %d), want %v (total 10)", st.Benchmarks, st.Total, wantRows)
	}
	rs, _, err := c.Collect(context.Background(), st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	if want := specJSON(t, spec); !bytes.Equal(got, want) {
		t.Errorf("remote scenario grid differs from in-process:\n%s\n%s", got, want)
	}
}

// TestStoreResumeScenarioJob: a scenario job interrupted by Close resumes
// from its journal record alone — the scenario rows travel by instance
// name — and finishes byte-identical to an uninterrupted in-process run.
func TestStoreResumeScenarioJob(t *testing.T) {
	dir := t.TempDir()
	spec := scenarioSpec(20_000)
	m1, err := server.OpenManager(server.Config{Parallelism: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		m1.Close()
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := m1.Status(st.ID, false)
		if cur.Completed >= 1 || cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell completed in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m1.Close()

	m2, err := server.OpenManager(server.Config{Parallelism: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if final := waitTerminal(t, m2, st.ID); final.State != server.StateDone || final.Completed != 10 {
		t.Fatalf("resumed job finished %+v, want done with 10 cells", final)
	}
	if n := metricInt(t, m2, "jobs_resumed_total"); n != 1 {
		t.Errorf("jobs_resumed_total = %d, want 1", n)
	}
	if got, want := resultsJSON(t, m2, st.ID), specJSON(t, spec); !bytes.Equal(got, want) {
		t.Errorf("resumed scenario grid differs from in-process:\n%s\n%s", got, want)
	}
}

// TestSubmitRejectsBadTolerances: a NaN-free wire can still carry a
// negative tolerance, which would fail cells that did not regress; it is a
// 400 like any other bad spec.
func TestSubmitRejectsBadTolerances(t *testing.T) {
	c := newTestServer(t, server.Config{Parallelism: 1})
	_, err := c.Submit(context.Background(), server.SweepRequest{
		Benchmarks: []string{"compress"}, Tolerances: &tracep.Tolerances{CacheMissPer1000: -1},
	})
	var apiErr *server.Error
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("negative tolerance error = %v, want 400 *server.Error", err)
	}
}

// TestSubmitBodyBound: POST /v1/sweeps reads at most a bounded body; an
// oversize one is a typed 413, and a normal request still gets its 201.
func TestSubmitBodyBound(t *testing.T) {
	mgr := server.NewManager(server.Config{Parallelism: 1})
	ts := httptest.NewServer(mgr.Handler())
	defer mgr.Close()
	defer ts.Close()
	post := func(body string) (int, server.Error) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var apiErr server.Error
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		return resp.StatusCode, apiErr
	}

	big := `{"benchmarks":["` + strings.Repeat("x", 2<<20) + `"]}`
	if code, apiErr := post(big); code != http.StatusRequestEntityTooLarge || apiErr.StatusCode != code {
		t.Errorf("oversize body: HTTP %d, error body %+v; want a typed 413", code, apiErr)
	}
	if code, _ := post(`{"benchmarks":["compress"],"models":["base"],"target_insts":2000}`); code != http.StatusCreated {
		t.Errorf("normal body: HTTP %d, want 201", code)
	}
}
