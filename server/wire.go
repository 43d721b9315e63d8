package server

import (
	"fmt"
	"time"

	"tracep"
)

// The wire format. Everything tracepd sends or accepts is defined here, in
// terms of the root package's JSON-stable types: cells travel as
// tracep.Result and collected grids as tracep.ResultSet, so a remote sweep
// serialises byte-identically to the same sweep run in-process — the
// channel contract (Sweep.Stream) and its JSON shape are the single source
// of truth for both.

// SweepRequest is the body of POST /v1/sweeps: a tracep.Spec naming the
// grid — scenario families, suite benchmarks, the server's recorded traces
// (Corpus; GET /v1/corpus lists them), models, seeds, warm-up, snapshot
// keys and advisory tolerances — resolved server-side by Spec.Resolve.
// Empty Benchmarks, Scenarios and Corpus mean the full eight-workload
// suite and empty Models all eight models: the paper's full §6
// cross-product. TargetInsts 0 takes the server's default. An unknown
// corpus name or snapshot key is a 404; any other bad name a 400.
type SweepRequest = tracep.Spec

// State is a sweep job's lifecycle phase.
type State string

const (
	// StateRunning: cells are still being simulated (or queued behind the
	// server's shared worker pool).
	StateRunning State = "running"
	// StateDone: every cell of the grid has been delivered.
	StateDone State = "done"
	// StateCancelled: the job was cancelled (DELETE, or server shutdown)
	// before the grid completed; the collected set is partial.
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further cells will be delivered.
func (s State) Terminal() bool { return s == StateDone || s == StateCancelled }

// Status is one sweep job's externally visible state: the response body of
// POST /v1/sweeps and DELETE /v1/sweeps/{id}, the status part of GET
// /v1/sweeps/{id}, and the final event of a stream.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`

	// Benchmarks, Models and Seeds are the resolved grid axes in request
	// order — clients rebuild deterministic ResultSet ordering from them
	// (tracep.NewResultSetGrid), which is what makes a remotely collected
	// set byte-identical to an in-process one. Seeds is absent for
	// single-replicate jobs (request had no seeds axis).
	Benchmarks []string `json:"benchmarks"`
	Models     []string `json:"models"`
	Seeds      []int64  `json:"seeds,omitempty"`
	// Corpus echoes the recorded-trace workload names of the grid (a
	// subset of Benchmarks, which always carries the full row axis).
	Corpus      []string          `json:"corpus,omitempty"`
	TargetInsts uint64            `json:"target_insts"`
	Seed        int64             `json:"seed,omitempty"`
	Warmup      uint64            `json:"warmup,omitempty"`
	WarmupFor   map[string]uint64 `json:"warmup_for,omitempty"`
	// Tolerances echoes the request's advisory gate tolerances, when given.
	Tolerances *tracep.Tolerances `json:"tolerances,omitempty"`

	// Total and Completed count grid cells; Failed counts completed cells
	// that carry an error.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed,omitempty"`

	CreatedAt time.Time `json:"created_at"`

	// Results is the collected (possibly still growing) grid; populated
	// only by GET /v1/sweeps/{id}.
	Results *tracep.ResultSet `json:"results,omitempty"`
}

// StreamEvent is one NDJSON line of GET /v1/sweeps/{id}/stream. Exactly
// one field is set: Cell for each completed cell (in completion order,
// every cell exactly once, replayed from the start on reconnection), then
// a final Done carrying the job's terminal status.
type StreamEvent struct {
	Cell *tracep.Result `json:"cell,omitempty"`
	Done *Status        `json:"done,omitempty"`
}

// CorpusEntry describes one recorded-trace workload the server can run by
// name: an element of GET /v1/corpus.
type CorpusEntry struct {
	Name string `json:"name"`
	// Records is the recording's committed-instruction count — the ceiling
	// on target_insts a replay can verify.
	Records uint64 `json:"records"`
	// File is the base name of the backing .tptrace file.
	File string `json:"file"`
}

// Error is the JSON body of every non-2xx response.
type Error struct {
	StatusCode int    `json:"status_code"`
	Message    string `json:"error"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("tracepd: %s (HTTP %d)", e.Message, e.StatusCode)
}
