// Package clustertest stands up in-process worker tracepds with
// injectable faults, for chaos-testing the cluster coordinator. A Worker
// is a real server.Manager behind a real httptest.Server — the coordinator
// talks to it over actual HTTP — with a middleware that can make the
// worker's NDJSON cell stream misbehave in the ways a distributed sweep
// must survive:
//
//   - FaultDieMidStream: the connection is severed after the first stream
//     line, as if the worker process died mid-cell.
//   - FaultHang: the stream request blocks forever (until the client gives
//     up), as if the worker wedged — the case work-stealing exists for.
//   - FaultCorrupt: the first stream line is scrambled into non-JSON, as
//     if the payload was damaged in transit.
//
// Die and corrupt are one-shot (the fault clears as soon as a stream
// request claims it, which is also when Fired turns true — before the
// faulty stream has written anything — so the retry that follows sees a
// healthy worker); hang is sticky (a wedged worker stays wedged — recovery
// must come from stealing, not retrying). Kill tears the whole worker down
// mid-flight: the listener is closed first and then every open connection
// severed, so no request can reconnect in between, and subsequent
// placements get connection errors, exactly like a crashed node.
package clustertest

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tracep/server"
)

// Fault selects a stream misbehaviour; see the package comment.
type Fault int

const (
	FaultNone Fault = iota
	FaultDieMidStream
	FaultHang
	FaultCorrupt
)

// Worker is a fault-injectable in-process worker tracepd.
type Worker struct {
	// Manager is the worker's real manager — tests can inspect its metrics
	// and job list directly.
	Manager *server.Manager

	ts *httptest.Server

	mu    sync.Mutex
	fault Fault
	fired bool
}

// NewWorker starts a worker over cfg. Cleanup (registered on t) closes the
// HTTP server and drains the manager; Kill earlier is fine.
func NewWorker(t testing.TB, cfg server.Config) *Worker {
	t.Helper()
	w := &Worker{Manager: server.NewManager(cfg)}
	w.ts = httptest.NewServer(http.HandlerFunc(w.serve))
	t.Cleanup(func() {
		w.ts.Close()
		closed := make(chan struct{})
		go func() { w.Manager.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Error("clustertest: worker manager did not drain within 30s")
		}
	})
	return w
}

// URL returns the worker's base URL for cluster.Config.Workers.
func (w *Worker) URL() string { return w.ts.URL }

// SetFault arms the next stream request with f.
func (w *Worker) SetFault(f Fault) {
	w.mu.Lock()
	w.fault = f
	w.fired = false
	w.mu.Unlock()
}

// Fired reports whether an armed fault has been claimed by a stream
// request since the last SetFault. It turns true when the request claims
// the fault, before the faulty stream writes anything, so it tells a test
// the fault is in flight, not that its effect (a cut or garbled line) has
// reached the client.
func (w *Worker) Fired() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fired
}

// Kill stops the listener, then severs every open connection — the HTTP
// appearance of a crashed worker. The order matters: with the listener
// still open, net/http's transparent retry of an idempotent GET whose
// connection died before any response byte would reconnect in the gap and
// be served cleanly. The manager keeps draining in the background (its
// cleanup still runs); only the network face dies.
func (w *Worker) Kill() {
	w.ts.Listener.Close()
	w.ts.CloseClientConnections()
	w.ts.Close()
}

// takeFault claims the armed fault for one stream request. One-shot faults
// clear on claim; FaultHang stays armed.
func (w *Worker) takeFault() Fault {
	w.mu.Lock()
	defer w.mu.Unlock()
	f := w.fault
	if f != FaultNone {
		w.fired = true
	}
	if f == FaultDieMidStream || f == FaultCorrupt {
		w.fault = FaultNone
	}
	return f
}

// serve is the fault middleware over the manager's real handler. Faults
// apply only to the NDJSON stream endpoint — the path the coordinator's
// exactly-once and steal machinery actually defends.
func (w *Worker) serve(rw http.ResponseWriter, r *http.Request) {
	h := w.Manager.Handler()
	if r.Method != http.MethodGet || !strings.HasSuffix(r.URL.Path, "/stream") {
		h.ServeHTTP(rw, r)
		return
	}
	switch w.takeFault() {
	case FaultDieMidStream:
		h.ServeHTTP(&dieWriter{rw: rw}, r)
	case FaultHang:
		// Never answer; release the handler goroutine when the client
		// disconnects or the test tears the server down.
		<-r.Context().Done()
	case FaultCorrupt:
		h.ServeHTTP(&corruptWriter{rw: rw}, r)
	default:
		h.ServeHTTP(rw, r)
	}
}

// dieWriter lets exactly one stream line through, then aborts the
// connection: the client sees a cell land and then the stream cut with no
// done event.
type dieWriter struct {
	rw    http.ResponseWriter
	lines int
}

func (d *dieWriter) Header() http.Header  { return d.rw.Header() }
func (d *dieWriter) WriteHeader(code int) { d.rw.WriteHeader(code) }
func (d *dieWriter) Flush()               { flush(d.rw) }
func (d *dieWriter) Write(p []byte) (int, error) {
	if d.lines >= 1 {
		panic(http.ErrAbortHandler)
	}
	n, err := d.rw.Write(p)
	d.lines += bytes.Count(p[:n], []byte("\n"))
	return n, err
}

// corruptWriter scrambles the first stream line into non-JSON of the same
// length (so framing survives but decoding cannot), then passes the rest
// through untouched.
type corruptWriter struct {
	rw        http.ResponseWriter
	corrupted bool
}

func (c *corruptWriter) Header() http.Header  { return c.rw.Header() }
func (c *corruptWriter) WriteHeader(code int) { c.rw.WriteHeader(code) }
func (c *corruptWriter) Flush()               { flush(c.rw) }
func (c *corruptWriter) Write(p []byte) (int, error) {
	if c.corrupted || len(bytes.TrimSpace(p)) == 0 {
		return c.rw.Write(p)
	}
	c.corrupted = true
	garbled := bytes.Repeat([]byte("#"), len(p))
	if p[len(p)-1] == '\n' {
		garbled[len(p)-1] = '\n'
	}
	if n, err := c.rw.Write(garbled); err != nil {
		return n, err
	}
	return len(p), nil
}

func flush(rw http.ResponseWriter) {
	if f, ok := rw.(http.Flusher); ok {
		f.Flush()
	}
}
