package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracep"
	"tracep/client"
	"tracep/internal/proc"
	"tracep/internal/tracefile"
	"tracep/server"
	"tracep/server/store"
)

// tracepd-corpus sizes. Every job measures corpusInsts instructions a
// cell: a cold job runs a corpusInsts recording from its start, a warm job
// restores a snapshot taken corpusWarmup instructions into a longer
// recording of the same family and measures the rest. Equal work keeps
// the job latencies in one cluster, so their median is steady.
const (
	corpusInsts  = 60_000
	corpusWarmup = 40_000
	// storeAppends is the least number of journal appends the traced run
	// times, so that the 95th percentile has ten samples beyond it.
	storeAppends = 200
	// corpusScenarioSeed generates the recorded programs. It is fixed, and
	// the workload seed perturbs predictor state as on paper-grid: programs
	// generated at different seeds differ in host cost per instruction by
	// more than the benchmark's bounds allow between runs.
	corpusScenarioSeed = 1
)

// recording is one generated program the corpus records.
type recording struct {
	bm             tracep.Benchmark
	target, warmup uint64
}

// corpusGrid is one distinct job: one recording under base and
// FG+MLB-RET, cold or restored from the shipped warm-up snapshot.
type corpusGrid struct {
	req   server.SweepRequest
	want  []byte            // the in-process Sweep's ResultSet, as JSON
	cells map[string][]byte // and its cells
	sw    tracep.Sweep      // the same grid in-process
	rs    *tracep.ResultSet
	// shipped is the warm-up snapshot the client PUT (nil for cold grids).
	shipped map[string]*tracep.Snapshot
}

// corpusEnv is a durable tracepd on loopback serving a recorded corpus.
type corpusEnv struct {
	rc      runConfig
	dir     string
	corpus  []tracep.Benchmark
	sources []recording
	grids   []*corpusGrid
	mgr     *server.Manager
	srv     *http.Server
	served  chan struct{}
	url     string
	stopped bool
}

func setupCorpus(ctx context.Context, rc runConfig) (env, error) {
	dir, err := os.MkdirTemp(rc.workdir, "tracepd-")
	if err != nil {
		return nil, err
	}
	e := &corpusEnv{rc: rc, dir: dir}
	if err := e.setup(ctx); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *corpusEnv) setup(ctx context.Context) error {
	// Record the four scenario families, each once for cold jobs and once,
	// longer, for warm ones.
	corpusDir := filepath.Join(e.dir, "corpus")
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		return err
	}
	for _, sc := range tracep.Scenarios() {
		cold := sc.Benchmark(corpusScenarioSeed)
		warm := cold
		warm.Name += "-warm"
		e.sources = append(e.sources, recording{cold, corpusInsts, 0}, recording{warm, corpusWarmup + corpusInsts, corpusWarmup})
	}
	for _, src := range e.sources {
		if _, err := tracep.CaptureTraceFile(ctx, src.bm, src.target, filepath.Join(corpusDir, src.bm.Name+tracep.TraceExt)); err != nil {
			return err
		}
	}
	corpus, err := tracep.Corpus(corpusDir)
	if err != nil {
		return err
	}
	e.corpus = corpus
	byName := make(map[string]tracep.Benchmark, len(corpus))
	for _, bm := range corpus {
		byName[bm.Name] = bm
	}

	e.mgr, err = server.OpenManager(server.Config{Parallelism: e.rc.workers, StoreDir: filepath.Join(e.dir, "store"), Corpus: corpus})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.url = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: e.mgr.Handler()}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()

	// Ship a warm-up snapshot for each warm recording, then compute every
	// grid's expected ResultSet in-process. Grids alternate cold and warm.
	cl := e.newClient(nil)
	models := []tracep.Model{tracep.ModelBase, tracep.ModelFGMLBRET}
	for _, src := range e.sources {
		bm := byName[src.bm.Name]
		g := &corpusGrid{req: server.SweepRequest{Corpus: []string{bm.Name}, Models: []string{models[0].Name, models[1].Name},
			TargetInsts: src.target, Seed: e.rc.seed}}
		g.sw = tracep.Sweep{Benchmarks: []tracep.Benchmark{bm}, Models: models, TargetInsts: src.target,
			Seed: e.rc.seed, Parallelism: e.rc.workers, Warmup: src.warmup}
		if src.warmup > 0 {
			snap, err := tracep.NewBenchmark(bm, src.target, tracep.WithSeed(e.rc.seed)).CaptureSnapshot(ctx, src.warmup)
			if err != nil {
				return err
			}
			data, err := snap.MarshalBinary()
			if err != nil {
				return err
			}
			key := store.Key(bm.Name, src.target, rowConfig(e.rc.seed), src.warmup)
			if err := cl.PutSnapshot(ctx, key, data); err != nil {
				return err
			}
			g.req.Warmup, g.req.Snapshots = src.warmup, map[string]string{bm.Name: key}
			g.shipped = map[string]*tracep.Snapshot{bm.Name: snap}
		}
		rs, err := g.sw.Run(ctx)
		if err != nil {
			return err
		}
		if err := rs.Err(); err != nil {
			return err
		}
		if g.want, err = json.Marshal(rs); err != nil {
			return err
		}
		g.rs, g.cells = detach(rs), cellBytes(rs)
		e.grids = append(e.grids, g)
	}

	// Untimed warm-up pass: every grid once through the service.
	for i := range e.grids {
		if _, err := e.job(ctx, cl, i, nil, ""); err != nil {
			return err
		}
	}
	return nil
}

// newClient returns a client on its own connection; counted, when set,
// receives the bytes read from stream responses.
func (e *corpusEnv) newClient(counted *atomic.Int64) *client.Client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if counted != nil {
		rt = &countingTransport{next: rt, n: counted}
	}
	return &client.Client{BaseURL: e.url, HTTPClient: &http.Client{Transport: rt}}
}

// jobResult is one job as a client saw it.
type jobResult struct {
	lat, first, submit time.Duration
	cells, failed      int
	insts              uint64
}

// job submits grid i and collects it, checking the collected ResultSet
// byte for byte against the in-process Sweep of the same grid. With rec
// set, the calls are recorded as spans of trace id.
func (e *corpusEnv) job(ctx context.Context, cl *client.Client, i int, rec *recorder, id string) (jobResult, error) {
	g := e.grids[i%len(e.grids)]
	var jr jobResult
	root := 0
	if rec != nil {
		root = rec.begin("job", id, 0)
		defer rec.end(root)
	}
	span := func(name string) int {
		if rec == nil {
			return 0
		}
		return rec.begin(name, id, root)
	}
	done := func(s int) {
		if rec != nil {
			rec.end(s)
		}
	}
	t0 := time.Now()
	s := span("client.submit")
	st, err := cl.Submit(ctx, g.req)
	done(s)
	jr.submit = time.Since(t0)
	if err != nil {
		return jr, fmt.Errorf("submit: %w", err)
	}
	s = span("client.collect")
	first := span("client.first_cell")
	rs, final, err := cl.Collect(ctx, st.ID, func(*tracep.Result) error {
		if jr.first == 0 {
			jr.first = time.Since(t0)
			done(first)
		}
		return nil
	})
	done(s)
	jr.lat = time.Since(t0)
	if jr.first == 0 {
		done(first)
	}
	if err != nil {
		return jr, fmt.Errorf("collect %s: %w", st.ID, err)
	}
	jr.cells = len(g.cells)
	if final.State != server.StateDone {
		jr.failed = jr.cells
		return jr, nil
	}
	if got, err := json.Marshal(rs); err != nil || string(got) != string(g.want) {
		jr.failed = max(mismatches(rs, g.cells, jr.cells), 1)
	}
	for _, r := range rs.Results() {
		if r.Stats != nil {
			jr.insts += r.Stats.RetiredInsts
		}
	}
	return jr, nil
}

// timed drives the service in a closed loop: e.rc.workers clients, each
// submitting its next job only once its previous job is collected. Jobs
// take the grids in turn.
func (e *corpusEnv) timed(ctx context.Context, d time.Duration) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	var next atomic.Int64
	var mu sync.Mutex
	var jobs []jobResult
	var firstErr error
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < e.rc.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := e.newClient(nil)
			for time.Since(start) < d && ctx.Err() == nil {
				jr, err := e.job(ctx, cl, int(next.Add(1)-1), nil, "")
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					jobs = append(jobs, jr)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if firstErr != nil {
		return nil, firstErr
	}

	var lat, first []float64
	var insts uint64
	var cells int
	for _, jr := range jobs {
		o.check(jr.cells, jr.failed)
		lat = append(lat, float64(jr.lat)/1e6)
		first = append(first, float64(jr.first)/1e6)
		insts += jr.insts
		cells += jr.cells
	}
	var cold []*tracep.Result
	for _, g := range e.grids {
		if g.req.Warmup == 0 {
			cold = append(cold, g.rs.Results()...)
		}
	}
	modelMetrics(o, cold)
	o.metrics["sim_minsts_per_s"] = float64(insts) / elapsed.Seconds() / 1e6
	o.metrics["alloc_mb_per_cell"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(cells, 1)) / 1e6
	o.metrics["job_p50_ms"] = median(lat)
	n := len(jobs)
	o.note("closed loop: %d clients, %d jobs over %d distinct grids in %.2f s; repeated-grid share %.3f", e.rc.workers, n, len(e.grids), elapsed.Seconds(), float64(max(n-len(e.grids), 0))/float64(max(n, 1)))
	o.note("job_p95_ms: %v; first_cell_p50_ms %.4g, tail: %v", tailOf(lat), median(first), tailOf(first))
	return o, nil
}

// traced runs rounds of the grids with one client, each round untraced,
// in-process and traced, until d has passed; then it probes the recording
// codec, the snapshot codec, the emulator and the job journal directly.
func (e *corpusEnv) traced(ctx context.Context, d time.Duration, rec *recorder) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	pass := func(r *recorder, p int, cl *client.Client) ([]jobResult, time.Duration, error) {
		t0 := time.Now()
		var out []jobResult
		for i := range e.grids {
			jr, err := e.job(ctx, cl, i, r, fmt.Sprintf("job-%d-%d", p, i))
			if err != nil {
				return nil, 0, err
			}
			o.check(jr.cells, jr.failed)
			out = append(out, jr)
		}
		return out, time.Since(t0), nil
	}
	// Each round runs the grids untraced, then in-process (for the service's
	// overhead), then traced.
	var streamed atomic.Int64
	plain, cl := e.newClient(nil), e.newClient(&streamed)
	var untraced, walls, submit, overhead []float64
	cells := 0
	start := time.Now()
	for p := 0; p == 0 || time.Since(start) < d; p++ {
		_, wall, err := pass(nil, p, plain)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, wall.Seconds())
		inproc := make([]time.Duration, len(e.grids))
		for i, g := range e.grids {
			// Restoring the shipped snapshot, as the service does.
			sw := g.sw
			sw.Snapshots = g.shipped
			t0 := time.Now()
			if _, err := sw.Run(ctx); err != nil {
				return nil, err
			}
			inproc[i] = time.Since(t0)
		}
		jobs, wall, err := pass(rec, p, cl)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		for i, jr := range jobs {
			submit = append(submit, float64(jr.submit)/1e6)
			overhead = append(overhead, float64(jr.lat-inproc[i])/float64(jr.lat))
			cells += jr.cells
		}
	}
	o.metrics["run.untraced_wall_s"] = median(untraced)
	o.metrics["run.traced_wall_s"] = median(walls)
	o.metrics["client.submit_ms"] = median(submit)
	o.metrics["server.stream_bytes_per_cell"] = float64(streamed.Load()) / float64(cells)
	o.metrics["server.overhead_frac"] = median(overhead)
	o.note("passes of %d sequential jobs: traced wall %.3v s, untraced wall %.3v s; client.submit_ms %v",
		len(e.grids), walls, untraced, tailOf(submit))

	pr := &probeResult{captureInsts: corpusWarmup}
	failed, err := e.recordingProbe(ctx, rec, pr)
	if err != nil {
		return nil, err
	}
	o.check(len(e.sources), failed)
	// The shipped snapshots: captured, encoded and decoded directly.
	var rows []*tracedRow
	for _, g := range e.grids {
		bm := g.sw.Benchmarks[0]
		prog := bm.Build(0)
		row := &tracedRow{bench: bm.Name, prog: prog}
		if g.sw.Warmup > 0 {
			rec.do("proc.capture", "probe-"+bm.Name, 0, func(int) {
				row.snap, err = proc.CaptureSnapshot(ctx, prog, rowConfig(e.rc.seed), g.sw.Warmup)
			})
			if err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	emuProbe(rec, rows, pr)
	if failed, err = snapshotProbe(rec, rows, pr); err != nil {
		return nil, err
	}
	o.check(len(rows), failed)

	// The journal is read once the service has stopped writing to it.
	e.stop()
	if err := e.storeProbe(o, rec); err != nil {
		return nil, err
	}
	layerMetrics(o, rec.snapshot(), len(walls), pr)
	var results []*tracep.Result
	for _, g := range e.grids {
		results = append(results, g.rs.Results()...)
	}
	counterMetrics(o, results)
	return o, nil
}

// recordingProbe re-records each family with tracefile.Capture, checks the
// file is byte-identical to the corpus's, then opens and decodes it.
func (e *corpusEnv) recordingProbe(ctx context.Context, rec *recorder, pr *probeResult) (int, error) {
	dir := filepath.Join(e.dir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	failed := 0
	for _, src := range e.sources {
		bm := src.bm
		id := "probe-" + bm.Name
		prog := bm.Build(bm.ScaleFor(src.target))
		path := filepath.Join(dir, bm.Name+tracep.TraceExt)
		f, err := os.Create(path)
		if err != nil {
			return 0, err
		}
		var n uint64
		rec.do("tracefile.capture", id, 0, func(int) {
			n, err = tracefile.Capture(ctx, f, prog, tracefile.Meta{Name: bm.Name, InstsPerIter: bm.InstsPerIter, TargetInsts: src.target}, 0)
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		got, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		want, err := os.ReadFile(filepath.Join(e.dir, "corpus", bm.Name+tracep.TraceExt))
		if err != nil {
			return 0, err
		}
		if string(got) != string(want) {
			failed++
		}
		pr.traceBits += uint64(len(got)) * 8
		pr.traceInsts += n

		var r *tracefile.Reader
		rec.do("tracefile.open", id, 0, func(int) { r, err = tracefile.OpenFile(path) })
		if err != nil {
			return 0, err
		}
		var decoded uint64
		rec.do("tracefile.decode", id, 0, func(int) {
			for {
				if _, err = r.Next(); err != nil {
					break
				}
				decoded++
			}
		})
		r.Close()
		if !errors.Is(err, io.EOF) || decoded != n {
			failed++
		}
		pr.decodeInsts += decoded
	}
	return failed, nil
}

// storeProbe counts the service's journal records per job, then times
// store.Append by appending those records, in turn, to a fresh store.
func (e *corpusEnv) storeProbe(o *outcome, rec *recorder) error {
	st, recov, err := store.Open(filepath.Join(e.dir, "store"))
	if err != nil {
		return err
	}
	st.Close()
	jobs := 0
	for _, r := range recov.Records {
		if r.Kind == store.KindJob {
			jobs++
		}
	}
	if jobs == 0 {
		return errors.New("the service journaled no jobs")
	}
	fresh, _, err := store.Open(filepath.Join(e.dir, "probe-store"))
	if err != nil {
		return err
	}
	defer fresh.Close()
	var us []float64
	for i := 0; i < storeAppends || i < len(recov.Records); i++ {
		r := recov.Records[i%len(recov.Records)]
		t0 := time.Now()
		rec.do("store.append", "probe-store", 0, func(int) { err = fresh.Append(r) })
		if err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	p95, beyond := percentile(us, 95)
	if beyond < minBeyond {
		return fmt.Errorf("store probe: %d appends leave %d samples beyond p95", len(us), beyond)
	}
	o.metrics["store.append_us_p50"] = median(us)
	o.metrics["store.append_us_p95"] = p95
	o.metrics["store.records_per_job"] = float64(len(recov.Records)) / float64(jobs)
	o.note("store.Append: %d fsync'd appends, p50 %.1f us, p95 %.1f us; journal %d records for %d jobs", len(us), median(us), p95, len(recov.Records), jobs)
	return nil
}

func (e *corpusEnv) close() {
	e.stop()
	os.RemoveAll(e.dir) // scratch space; a failure leaves files under .bench_build only
}

// stop shuts the service down and waits for it; it may be called twice.
func (e *corpusEnv) stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.srv.Shutdown(ctx) // open streams end when the manager closes below
		cancel()
		<-e.served
	}
	if e.mgr != nil {
		e.mgr.Close()
	}
}

// countingTransport counts the bytes read from stream response bodies.
type countingTransport struct {
	next http.RoundTripper
	n    *atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/stream") {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
