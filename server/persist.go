package server

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"strings"
	"time"

	"tracep"
	"tracep/server/store"
)

// Durability: with Config.StoreDir set (OpenManager, tracepd -store) the
// manager journals every job to an fsync'd append-only log (tracep/server/
// store) — one KindJob record at submission, one KindCell record per
// completed cell, one KindState record at client cancellation or
// completion, one KindEvict at retention eviction. Restarting over the
// same directory rebuilds the world from the log: terminal jobs replay
// without a single re-simulation (their streams and ResultSets serve from
// the journal), and non-terminal jobs — killed mid-sweep — resume with
// RowSpecs covering exactly the cells that were not yet durable.
// Determinism makes the resume honest: a re-simulated cell is
// byte-identical to the one the crash destroyed, so a client collecting a
// resumed job sees the same bytes as one that never crashed.
//
// Shutdown via Close deliberately writes no terminal record for running
// jobs: a drained-but-unfinished sweep is "unfinished" on disk and resumes
// on restart. Only client cancellation persists StateCancelled.

// jobRecord is the KindJob payload: the job's resolved grid (see
// resolvedSpec), which is everything needed to rebuild and, if necessary,
// resume the job. Snapshot content travels separately (the
// content-addressed snapshot store); the record carries only keys. The
// empty json tag names no key, so encoding/json inlines Spec's fields.
type jobRecord struct {
	tracep.Spec `json:""`
	CreatedAt   time.Time `json:"created_at"`
}

// persist appends rec to the job log (no-op on a store-less manager). A
// failed append is counted, not fatal: the server keeps serving from
// memory and the worst outcome of lost durability is re-simulation after
// a restart — never wrong results.
func (m *Manager) persist(rec store.Record) {
	if m.store == nil {
		return
	}
	if err := m.store.Append(rec); err != nil {
		m.storeErrors.Add(1)
	}
}

func (m *Manager) persistJob(j *job) {
	payload, err := json.Marshal(jobRecord{j.spec, j.createdAt})
	if err != nil {
		m.storeErrors.Add(1)
		return
	}
	m.persist(store.Record{Kind: store.KindJob, JobID: j.id, Payload: payload})
}

func (m *Manager) persistCell(id string, res *tracep.Result) {
	if m.store == nil {
		return
	}
	// A cell that "failed" because its run was cancelled is an artifact of
	// shutdown or DELETE, not a simulation outcome. Journaling it would
	// poison a later resume — the cell would replay as failed instead of
	// being re-simulated — so cancellation-failed cells stay memory-only.
	if errors.Is(res.Err(), context.Canceled) {
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		m.storeErrors.Add(1)
		return
	}
	m.persist(store.Record{Kind: store.KindCell, JobID: id, Payload: payload})
}

func (m *Manager) persistState(id string, st State) {
	m.persist(store.Record{Kind: store.KindState, JobID: id, Payload: []byte(st)})
}

// recovered is one job reassembled from the log.
type recovered struct {
	id    string
	meta  jobRecord
	cells []*tracep.Result
	state State // "" when the job never reached a terminal record
}

// replayLog folds the journal into per-job recovered state (submission
// order) plus the compacted record list — the journal minus evicted jobs,
// orphaned records and damage-stranded fragments.
func replayLog(recs []store.Record) (jobs []*recovered, keep []store.Record) {
	byID := make(map[string]*recovered)
	evicted := make(map[string]bool)
	for _, rec := range recs {
		if rec.Kind == store.KindEvict {
			evicted[rec.JobID] = true
			delete(byID, rec.JobID)
			continue
		}
		if evicted[rec.JobID] {
			continue // a job ID never comes back after eviction
		}
		switch rec.Kind {
		case store.KindJob:
			var meta jobRecord
			if json.Unmarshal(rec.Payload, &meta) != nil {
				continue
			}
			if _, dup := byID[rec.JobID]; dup {
				continue
			}
			r := &recovered{id: rec.JobID, meta: meta}
			byID[rec.JobID] = r
			jobs = append(jobs, r)
		case store.KindCell:
			r, ok := byID[rec.JobID]
			if !ok {
				continue // cell without a job record: stranded, drop
			}
			var res tracep.Result
			if json.Unmarshal(rec.Payload, &res) != nil {
				continue
			}
			r.cells = append(r.cells, &res)
		case store.KindState:
			if r, ok := byID[rec.JobID]; ok {
				r.state = State(rec.Payload)
			}
		}
	}
	kept := make([]*recovered, 0, len(jobs))
	for _, r := range jobs {
		if !evicted[r.id] {
			kept = append(kept, r)
		}
	}
	for _, rec := range recs {
		if rec.Kind != store.KindEvict && byID[rec.JobID] != nil {
			keep = append(keep, rec)
		}
	}
	return kept, keep
}

// OpenManager builds a manager like NewManager and, when cfg.StoreDir is
// set, binds it to the durable job store in that directory: recovered
// terminal jobs are retained for status/stream replay without
// re-simulation, and recovered running jobs — interrupted by a crash or a
// shutdown — resume, re-simulating only the cells the journal does not
// hold. The journal is compacted on open (evicted jobs and stranded
// fragments drop out), so restart cost stays proportional to retained
// work.
func OpenManager(cfg Config) (*Manager, error) {
	m := NewManager(cfg)
	if cfg.StoreDir == "" {
		return m, nil
	}
	st, rec, err := store.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	snaps, err := store.NewSnapshotStore(store.SnapshotDir(cfg.StoreDir))
	if err != nil {
		st.Close()
		return nil, err
	}
	m.store, m.snaps = st, snaps
	if rec.TruncatedBytes > 0 {
		m.storeTruncated.Add(int64(rec.TruncatedBytes))
	}
	jobs, keep := replayLog(rec.Records)
	if len(keep) != len(rec.Records) || rec.TruncatedBytes > 0 {
		if err := st.Compact(keep); err != nil {
			st.Close()
			return nil, err
		}
	}
	for _, r := range jobs {
		m.adoptRecovered(r)
	}
	return m, nil
}

// adoptRecovered installs one journaled job into the manager: terminal
// jobs as replayable history, non-terminal jobs as live jobs whose missing
// cells go back through the Runner.
func (m *Manager) adoptRecovered(r *recovered) {
	j := &job{
		id:        r.id,
		spec:      r.meta.Spec,
		createdAt: r.meta.CreatedAt,
		finished:  make(chan struct{}),
		changed:   make(chan struct{}),
	}
	j.initGrid()
	for _, res := range r.cells {
		// Dedupe defensively: a cell journaled twice (possible only through
		// log surgery, never through collect) must not inflate the count.
		if j.rs.HasReplicate(res.Benchmark, res.Model, res.Seed) {
			continue
		}
		j.cells = append(j.cells, res)
		j.rs.Add(res)
		if res.Err() != nil {
			j.failed++
		}
	}

	m.mu.Lock()
	if n := jobSeq(r.id); n > m.nextID {
		m.nextID = n
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.mu.Unlock()

	if r.state.Terminal() {
		j.state = r.state
		j.cancel = func() {}
		close(j.finished)
		m.jobsRecovered.Add(1)
		return
	}

	// Resume: send exactly the missing cells back through the Runner. An
	// empty missing set (crashed after the last cell, before the terminal
	// record) flows through collect too, which finalises the state.
	j.state = StateRunning
	rows, err := m.resumeRows(j)
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	if err != nil {
		// The grid no longer resolves (e.g. a corpus recording disappeared
		// from this server). The job cannot continue; finalise it as
		// cancelled rather than dropping history.
		j.state = StateCancelled
		m.persistState(j.id, StateCancelled)
		close(j.finished)
		m.jobsRecovered.Add(1)
		return
	}
	m.jobsResumed.Add(1)
	go j.collect(m, m.runner.Run(ctx, rows))
}

// resumeRows rebuilds the RowSpecs for a recovered job's missing cells by
// resolving its journaled grid again. Corpus rows sit in both Benchmarks
// and Corpus there, so they resolve through Corpus alone.
func (m *Manager) resumeRows(j *job) ([]RowSpec, error) {
	spec := j.spec
	spec.Benchmarks = withoutCorpus(spec.Benchmarks, spec.Corpus)
	sw, err := m.resolve(spec)
	if err != nil {
		return nil, err
	}
	return m.rows(j, sw), nil
}

// rows builds one RowSpec per (benchmark, seed) row holding the models whose
// cells j's ResultSet still lacks: the whole grid for a fresh job, exactly
// the cells the journal does not hold for a resumed one. The row is the
// placement unit because its warm-up snapshot embeds seed-dependent
// predictor state.
func (m *Manager) rows(j *job, sw *tracep.Sweep) []RowSpec {
	var rows []RowSpec
	for _, bm := range sw.Benchmarks {
		for _, seed := range j.seedAxis() {
			var missing []tracep.Model
			for _, md := range sw.Models {
				if !j.rs.HasReplicate(bm.Name, md.Name, seed) {
					missing = append(missing, md)
				}
			}
			if len(missing) > 0 {
				rows = append(rows, m.rowSpec(bm, missing, j, seed))
			}
		}
	}
	return rows
}

// rowSpec builds one (benchmark, seed) row's spec from a job, resolving
// its snapshot key against the snapshot store. A key the store no longer
// holds degrades to the row's functional warm-up — byte-identical by the
// snapshot round-trip guarantee, just slower.
func (m *Manager) rowSpec(bm tracep.Benchmark, models []tracep.Model, j *job, seed int64) RowSpec {
	row := RowSpec{
		Bench:       bm,
		Models:      models,
		TargetInsts: j.spec.TargetInsts,
		Seed:        seed,
		Warmup:      j.spec.Warmup,
		Corpus:      m.inCorpus(bm.Name),
	}
	if n, ok := j.spec.WarmupFor[bm.Name]; ok {
		row.Warmup = n
	}
	// Snapshot keys are benchmark-scoped but a warmed-up snapshot embeds
	// seed-dependent predictor state, so a provided key can only serve the
	// single-replicate axis (the coordinator's per-row shipping path, whose
	// worker requests carry one seed and no seeds axis). Multi-seed jobs
	// fall back to per-row functional warm-up — byte-identical, just not
	// pre-captured.
	if key, ok := j.spec.Snapshots[bm.Name]; ok && len(j.spec.Seeds) == 0 {
		if snap := m.snaps.Get(key); snap != nil {
			row.Snapshot, row.SnapshotKey = snap, key
		}
	}
	return row
}

// withoutCorpus filters a job's full row axis down to the rows that are
// not corpus recordings: the ones Spec.Benchmarks resolves.
func withoutCorpus(rows, corpus []string) []string {
	if len(corpus) == 0 {
		return rows
	}
	var out []string
	for _, name := range rows {
		if !slices.Contains(corpus, name) {
			out = append(out, name)
		}
	}
	return out
}

// jobSeq extracts N from a "sw-N" job ID (0 if the ID has another shape),
// so a restarted manager continues the ID sequence past every recovered
// job instead of reissuing IDs.
func jobSeq(id string) int {
	rest, ok := strings.CutPrefix(id, "sw-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
