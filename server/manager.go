package server

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"maps"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"tracep"
	"tracep/server/store"
)

// Defaults for Config fields left zero.
const (
	DefaultRetain      = 32
	DefaultTargetInsts = 300_000
)

// Config shapes a Manager.
type Config struct {
	// Parallelism is the size of the shared simulation pool: the maximum
	// number of cells simulating at once across ALL live sweeps (<= 0 =
	// GOMAXPROCS). It is enforced with one tracep.Gate shared by every
	// job's Sweep.
	Parallelism int
	// Retain bounds how many terminal (done or cancelled) jobs are kept
	// for status queries and stream replay; the oldest are evicted first
	// (<= 0 = DefaultRetain). Live jobs are never evicted.
	Retain int
	// DefaultTargetInsts sizes workloads for requests that leave
	// TargetInsts zero (<= 0 = DefaultTargetInsts).
	DefaultTargetInsts uint64
	// Corpus is the server's recorded-trace suite (typically
	// tracep.Corpus(dir) from tracepd -corpus): workloads clients reference
	// by name via SweepRequest.Corpus and list via GET /v1/corpus. Entries
	// whose Recorded handle is nil are ignored.
	Corpus []tracep.Benchmark
	// StoreDir roots the durable job store (tracepd -store). NewManager
	// ignores it; OpenManager binds the manager to the journal there,
	// replaying finished jobs and resuming interrupted ones. See persist.go.
	StoreDir string
	// Gate, when non-nil, replaces the manager's own simulation gate: every
	// job's cells then count against this shared bound. A cluster of
	// in-process managers handed one Gate is bounded machine-wide exactly
	// like a single server (the coordinator race tests run this way);
	// Parallelism still shapes per-sweep worker pools. Nil = a fresh gate of
	// Parallelism slots.
	Gate *tracep.Gate
	// Runner, when non-nil, replaces local in-process simulation: the
	// manager hands it resolved RowSpecs and collects the returned stream.
	// This is how tracepd -coordinator mode shards rows across workers
	// (server/cluster.Coordinator) without touching the job lifecycle. Nil =
	// simulate locally on the shared gate.
	Runner Runner
}

// Manager owns the server's sweep jobs: it validates submissions, runs
// each as a tracep.Sweep whose cells are collected through Sweep.Stream,
// bounds total simulation concurrency with one shared tracep.Gate, and
// retains terminal jobs (up to Config.Retain) so their ResultSets can be
// re-fetched and their streams replayed. All methods are safe for
// concurrent use; Handler exposes the manager over HTTP.
type Manager struct {
	cfg    Config
	gate   *tracep.Gate
	runner Runner

	// store is the durable job journal (nil on a store-less manager); snaps
	// is the content-addressed snapshot store — durable under StoreDir,
	// memory-only otherwise, but always present so PUT /v1/snapshots works
	// on diskless workers.
	store *store.Store
	snaps *store.SnapshotStore

	// corpus indexes Config.Corpus by workload name; corpusNames keeps the
	// configured order for GET /v1/corpus.
	corpus      map[string]tracep.Benchmark
	corpusNames []string

	// metrics and the counters beneath it back GET /metrics; see metrics.go.
	metrics        *expvar.Map
	jobsSubmitted  *expvar.Int
	cellsCompleted *expvar.Int
	cellsFailed    *expvar.Int
	streamCells    *expvar.Int
	jobsRecovered  *expvar.Int
	jobsResumed    *expvar.Int
	storeErrors    *expvar.Int
	storeTruncated *expvar.Int
	snapsStored    *expvar.Int

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for retention eviction
	nextID int
	closed bool
}

// NewManager builds a memory-only manager (Config.StoreDir is ignored; use
// OpenManager for durability); call Close to stop every live sweep and
// wait for their workers.
func NewManager(cfg Config) *Manager {
	if cfg.Retain <= 0 {
		cfg.Retain = DefaultRetain
	}
	if cfg.DefaultTargetInsts == 0 {
		cfg.DefaultTargetInsts = DefaultTargetInsts
	}
	pool := cfg.Parallelism
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	gate := cfg.Gate
	if gate == nil {
		gate = tracep.NewGate(pool)
	}
	m := &Manager{cfg: cfg, jobs: make(map[string]*job), gate: gate}
	m.runner = cfg.Runner
	if m.runner == nil {
		m.runner = &localRunner{parallelism: cfg.Parallelism, gate: gate}
	}
	// Memory-only snapshot store; OpenManager swaps in a durable one.
	m.snaps, _ = store.NewSnapshotStore("")
	m.corpus = make(map[string]tracep.Benchmark, len(cfg.Corpus))
	for _, bm := range cfg.Corpus {
		if bm.Recorded == nil {
			continue
		}
		if _, dup := m.corpus[bm.Name]; dup {
			continue // tracep.Corpus rejects duplicates; be safe under hand-built configs
		}
		m.corpus[bm.Name] = bm
		m.corpusNames = append(m.corpusNames, bm.Name)
	}
	m.initMetrics()
	return m
}

// Corpus lists the server's recorded-trace workloads in configured order.
func (m *Manager) Corpus() []CorpusEntry {
	out := make([]CorpusEntry, 0, len(m.corpusNames))
	for _, name := range m.corpusNames {
		bm := m.corpus[name]
		out = append(out, CorpusEntry{
			Name:    name,
			Records: bm.Recorded.Records(),
			File:    filepath.Base(bm.Recorded.Path()),
		})
	}
	return out
}

// job is one submitted sweep: its resolved grid, the append-only cell log
// that streams replay from, the growing ResultSet, and the lifecycle
// state. changed is closed and replaced on every append or state change —
// the broadcast streams block on.
type job struct {
	id string
	// spec is the job's resolved grid (see resolvedSpec): what the journal
	// records, what Status echoes, and what a resume re-resolves.
	spec      tracep.Spec
	total     int
	createdAt time.Time
	cancel    context.CancelFunc
	finished  chan struct{}

	mu      sync.Mutex
	cells   []*tracep.Result
	rs      *tracep.ResultSet
	failed  int
	state   State
	changed chan struct{}
}

func (j *job) broadcastLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// seedAxis returns the job's effective replicate axis: the resolved seeds
// when the request had any, else the single implicit {seed} — mirroring
// tracep.Sweep's Seeds/Seed resolution so remotely collected sets stay
// byte-identical to in-process ones.
func (j *job) seedAxis() []int64 {
	if len(j.spec.Seeds) > 0 {
		return j.spec.Seeds
	}
	return []int64{j.spec.Seed}
}

// snapshot returns the job's Status; withResults attaches the live
// ResultSet (safe to marshal while workers still add cells).
func (j *job) snapshot(withResults bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.id,
		State:       j.state,
		Benchmarks:  j.spec.Benchmarks,
		Corpus:      j.spec.Corpus,
		Models:      j.spec.Models,
		Seeds:       j.spec.Seeds,
		TargetInsts: j.spec.TargetInsts,
		Seed:        j.spec.Seed,
		Warmup:      j.spec.Warmup,
		WarmupFor:   j.spec.WarmupFor,
		Tolerances:  j.spec.Tolerances,
		Total:       j.total,
		Completed:   len(j.cells),
		Failed:      j.failed,
		CreatedAt:   j.createdAt,
	}
	if withResults {
		st.Results = j.rs
	}
	return st
}

// await blocks until cell i exists (returned with terminal=false), the job
// is terminal with no cell i (terminal=true), or ctx is cancelled.
func (j *job) await(ctx context.Context, i int) (cell *tracep.Result, terminal bool, err error) {
	for {
		j.mu.Lock()
		if i < len(j.cells) {
			cell = j.cells[i]
			j.mu.Unlock()
			return cell, false, nil
		}
		if j.state.Terminal() {
			j.mu.Unlock()
			return nil, true, nil
		}
		wait := j.changed
		j.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// collect drains the runner's stream into the job. It is the only writer
// of cells/rs/state, runs on its own goroutine, and closes finished last.
// Each cell is journaled before it becomes visible to streams — a cell a
// client has seen is durable — and the terminal state is journaled for
// completion and client cancellation, but not for shutdown: a job drained
// by Close stays "running" on disk so a restart resumes it.
func (j *job) collect(m *Manager, stream <-chan *tracep.Result) {
	for res := range stream {
		m.persistCell(j.id, res)
		j.mu.Lock()
		j.cells = append(j.cells, res)
		j.rs.Add(res)
		if res.Err() != nil {
			j.failed++
			m.cellsFailed.Add(1)
		}
		m.cellsCompleted.Add(1)
		j.broadcastLocked()
		j.mu.Unlock()
	}
	j.mu.Lock()
	if len(j.cells) < j.total {
		j.state = StateCancelled
	} else {
		j.state = StateDone
	}
	state := j.state
	j.broadcastLocked()
	j.mu.Unlock()
	if state == StateDone || !m.isClosed() {
		m.persistState(j.id, state)
	}
	close(j.finished)
}

func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Submit validates req, starts its sweep on the shared pool, and returns
// the new job's status. The sweep runs until its grid completes, Cancel is
// called, or the manager closes. A bad name is a 400, except an unknown
// corpus name or snapshot key: those resources do not exist here, a 404.
func (m *Manager) Submit(req SweepRequest) (Status, error) {
	if req.TargetInsts == 0 {
		req.TargetInsts = m.cfg.DefaultTargetInsts
	}
	sw, err := m.resolve(req)
	if err != nil {
		return Status{}, err
	}
	for _, name := range slices.Sorted(maps.Keys(req.Snapshots)) {
		key := req.Snapshots[name]
		if !store.ValidKey(key) {
			return Status{}, &Error{StatusCode: http.StatusBadRequest,
				Message: fmt.Sprintf("snapshots[%q]: malformed snapshot key %q", name, key)}
		}
		if !m.snaps.Has(key) {
			return Status{}, &Error{StatusCode: http.StatusNotFound,
				Message: fmt.Sprintf("no such snapshot: %s (PUT /v1/snapshots/{key} first)", key)}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		spec:      resolvedSpec(req, sw),
		createdAt: time.Now().UTC(),
		cancel:    cancel,
		finished:  make(chan struct{}),
		state:     StateRunning,
		changed:   make(chan struct{}),
	}
	j.initGrid()
	rows := m.rows(j, sw)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return Status{}, &Error{StatusCode: http.StatusServiceUnavailable, Message: "server is shutting down"}
	}
	m.nextID++
	j.id = fmt.Sprintf("sw-%d", m.nextID)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	m.mu.Unlock()

	m.persistJob(j)
	m.jobsSubmitted.Add(1)
	go j.collect(m, m.runner.Run(ctx, rows))
	return j.snapshot(false), nil
}

// resolve resolves spec against the server's corpus, mapping tracep's typed
// errors onto HTTP: an unknown corpus trace is a 404, any other bad spec a
// 400.
func (m *Manager) resolve(spec tracep.Spec) (*tracep.Sweep, error) {
	sw, err := spec.Resolve(m.corpus)
	switch {
	case errors.Is(err, tracep.ErrUnknownCorpus):
		return nil, &Error{StatusCode: http.StatusNotFound, Message: err.Error() + " (GET /v1/corpus lists available recordings)"}
	case err != nil:
		return nil, &Error{StatusCode: http.StatusBadRequest, Message: err.Error()}
	}
	return sw, nil
}

// resolvedSpec is the canonical form of a resolved request: every row by
// name in Benchmarks (scenario instances, suite workloads, then corpus
// rows, which Corpus also lists), the resolved model names and the
// deduplicated seeds. It is what the journal records and Status echoes.
// Its non-corpus rows resolve again through Benchmarks, so a resume needs
// nothing but the record.
func resolvedSpec(req SweepRequest, sw *tracep.Sweep) tracep.Spec {
	spec := req
	spec.Scenarios, spec.ScenarioSeeds = nil, nil
	spec.Benchmarks = make([]string, len(sw.Benchmarks))
	for i, bm := range sw.Benchmarks {
		spec.Benchmarks[i] = bm.Name
	}
	spec.Models = make([]string, len(sw.Models))
	for i, md := range sw.Models {
		spec.Models[i] = md.Name
	}
	spec.Seeds = sw.Seeds
	return spec
}

// initGrid sizes the job's cell count and fixes its ResultSet's axis order
// from the resolved spec.
func (j *job) initGrid() {
	axis := j.seedAxis()
	j.total = len(j.spec.Benchmarks) * len(j.spec.Models) * len(axis)
	j.rs = tracep.NewResultSetGrid(j.spec.Benchmarks, j.spec.Models, axis)
}

// evictLocked drops the oldest terminal jobs beyond the retention bound.
func (m *Manager) evictLocked() {
	terminal := 0
	for _, id := range m.order {
		if m.jobs[id] != nil && m.jobs[id].snapshotTerminal() {
			terminal++
		}
	}
	if terminal <= m.cfg.Retain {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if j != nil && terminal > m.cfg.Retain && j.snapshotTerminal() {
			delete(m.jobs, id)
			m.persist(store.Record{Kind: store.KindEvict, JobID: id})
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// inCorpus reports whether name is one of the server's recorded-trace
// workloads.
func (m *Manager) inCorpus(name string) bool {
	_, ok := m.corpus[name]
	return ok
}

// Snapshots exposes the manager's content-addressed snapshot store (durable
// under Config.StoreDir via OpenManager, memory-only otherwise) — what the
// HTTP snapshot endpoints and the cluster coordinator's shipping layer
// read and write.
func (m *Manager) Snapshots() *store.SnapshotStore { return m.snaps }

// Gate returns the manager's shared simulation gate.
func (m *Manager) Gate() *tracep.Gate { return m.gate }

func (j *job) snapshotTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

func (m *Manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Status returns a job's status; withResults attaches the collected (and
// possibly still growing) ResultSet.
func (m *Manager) Status(id string, withResults bool) (Status, bool) {
	j, ok := m.get(id)
	if !ok {
		return Status{}, false
	}
	return j.snapshot(withResults), true
}

// List returns every retained job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot(false)
	}
	return out
}

// Cancel stops a job's sweep (in-flight cells abort and land as failed
// cells, unstarted cells are never delivered) and returns its status once
// the job has reached a terminal state. Cancelling a terminal job is a
// no-op returning its final status.
func (m *Manager) Cancel(id string) (Status, bool) {
	j, ok := m.get(id)
	if !ok {
		return Status{}, false
	}
	j.cancel()
	<-j.finished
	return j.snapshot(false), true
}

// Close cancels every live job and waits for all sweep workers to drain,
// then releases the job store (if any). The manager rejects new
// submissions afterwards. Jobs interrupted by Close keep their "running"
// journal state — no terminal record is written — so reopening the same
// store directory resumes them; only their still-missing cells are
// re-simulated.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	jobs := make([]*job, 0, len(m.jobs))
	for _, id := range m.order { // submission order: deterministic shutdown
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	for _, j := range jobs {
		<-j.finished
	}
	if m.store != nil {
		_ = m.store.Close()
	}
}
