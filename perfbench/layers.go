package main

import (
	"math"
	"sort"
	"time"

	"tracep"
	"tracep/internal/emu"
	"tracep/internal/isa"
	"tracep/internal/proc"
)

// probeResult carries what the serial probes measured beside the spans.
type probeResult struct {
	newAlloc, runAlloc, restoreAlloc []float64 // MB per call
	runCycles, runInsts              uint64    // over every traced proc.run
	emuInsts                         uint64
	snapBytes                        []float64
	captureInsts                     uint64
	traceBits, traceInsts            uint64
	decodeInsts                      uint64
}

// emuProbe runs the functional emulator alone over each distinct program.
func emuProbe(rec *recorder, rows []*tracedRow, pr *probeResult) {
	seen := make(map[*isa.Program]bool)
	for _, row := range rows {
		if seen[row.prog] {
			continue
		}
		seen[row.prog] = true
		rec.do("emu.run", "probe-"+row.bench, 0, func(int) {
			pr.emuInsts += emu.New(row.prog).Run(math.MaxUint64)
		})
	}
}

// snapshotProbe encodes and decodes every row snapshot, checking that the
// decoded snapshot encodes to the same bytes; it returns how many did not.
func snapshotProbe(rec *recorder, rows []*tracedRow, pr *probeResult) (int, error) {
	failed := 0
	for _, row := range rows {
		if row.snap == nil {
			continue
		}
		var data []byte
		var err error
		rec.do("proc.snapshot_marshal", "probe-"+row.bench, 0, func(int) { data, err = row.snap.MarshalBinary() })
		if err != nil {
			return 0, err
		}
		pr.snapBytes = append(pr.snapBytes, float64(len(data)))
		var back *proc.Snapshot
		rec.do("proc.snapshot_unmarshal", "probe-"+row.bench, 0, func(int) { back, err = proc.UnmarshalSnapshot(data) })
		if err != nil {
			failed++
			continue
		}
		if again, err := back.MarshalBinary(); err != nil || string(again) != string(data) {
			failed++
		}
	}
	return failed, nil
}

// meanMs is a layer's mean call duration in ms (0 when never called).
func meanMs(lt map[string]*layerTime, name string) float64 {
	if l := lt[name]; l != nil && l.Calls > 0 {
		return float64(l.Total) / float64(l.Calls) / 1e6
	}
	return 0
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func perSecond(n uint64, lt map[string]*layerTime, name string) float64 {
	if l := lt[name]; l != nil && l.Total > 0 {
		return float64(n) / l.Total.Seconds() / 1e6
	}
	return 0
}

// layerMetrics turns spans and probe results into the per-layer timing
// metrics; layers with no spans report 0. Metrics the caller already set
// (the service's) are kept.
func layerMetrics(o *outcome, spans []span, passes int, pr *probeResult) {
	lt := layerTimes(spans)
	set := func(name string, v float64) {
		if _, ok := o.metrics[name]; !ok {
			o.metrics[name] = v
		}
	}
	set("bench.build_ms", meanMs(lt, "bench.build"))
	set("proc.new_ms", meanMs(lt, "proc.new"))
	set("proc.new_alloc_mb", mean(pr.newAlloc))
	set("proc.run_alloc_mb", mean(pr.runAlloc))
	set("proc.restore_ms", meanMs(lt, "proc.restore"))
	set("proc.restore_alloc_mb", mean(pr.restoreAlloc))
	set("proc.capture_ms", meanMs(lt, "proc.capture"))
	set("proc.snapshot_kb", mean(pr.snapBytes)/1e3)
	set("proc.snapshot_marshal_ms", meanMs(lt, "proc.snapshot_marshal"))
	set("proc.snapshot_unmarshal_ms", meanMs(lt, "proc.snapshot_unmarshal"))
	set("emu.minsts_per_s", perSecond(pr.emuInsts, lt, "emu.run"))
	set("tracefile.encode_minsts_per_s", perSecond(pr.traceInsts, lt, "tracefile.capture"))
	set("tracefile.open_ms", meanMs(lt, "tracefile.open"))
	set("tracefile.decode_minsts_per_s", perSecond(pr.decodeInsts, lt, "tracefile.decode"))
	bits := 0.0
	if pr.traceInsts > 0 {
		bits = float64(pr.traceBits) / float64(pr.traceInsts)
	}
	set("tracefile.bits_per_inst", bits)

	var captured uint64
	var run time.Duration
	if l := lt["proc.run"]; l != nil {
		run = l.Total
	}
	if l := lt["proc.capture"]; l != nil {
		captured = uint64(l.Calls)
	}
	set("proc.run_s", run.Seconds()/float64(max(passes, 1)))
	ns := func(n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(run) / float64(n)
	}
	set("proc.ns_per_cycle", ns(pr.runCycles))
	set("proc.ns_per_inst", ns(pr.runInsts))
	set("proc.capture_minsts_per_s", perSecond(captured*pr.captureInsts, lt, "proc.capture"))
	for _, n := range []string{"sweep.busy_frac", "run.untraced_wall_s", "run.traced_wall_s",
		"store.append_us_p50", "store.append_us_p95", "store.records_per_job",
		"client.submit_ms", "server.stream_bytes_per_cell", "server.overhead_frac"} {
		set(n, 0)
	}

	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := lt[n]
		o.note("span %-26s calls %6d  total %10.2f ms  self %10.2f ms", n, l.Calls, float64(l.Total)/1e6, float64(l.Own)/1e6)
	}
}

// counterMetrics are the modelled per-layer counters from proc.Stats,
// summed over results and expressed per 1000 retired instructions (or as
// a rate). They repeat exactly for a given seed.
func counterMetrics(o *outcome, results []*tracep.Result) {
	var s proc.Stats
	var condMisp uint64
	for _, r := range results {
		st := r.Stats
		if st == nil {
			continue
		}
		s.RetiredInsts += st.RetiredInsts
		s.SquashedInsts += st.SquashedInsts
		s.Recoveries += st.Recoveries
		s.Reissues += st.Reissues
		s.TCMisses += st.TCMisses
		s.TPredictions += st.TPredictions
		s.BITLookups += st.BITLookups
		s.BITMisses += st.BITMisses
		s.ICMisses += st.ICMisses
		s.DCMisses += st.DCMisses
		s.LoadSnoopReissues += st.LoadSnoopReissues
		condMisp += st.CondMispredictions()
	}
	per1k := func(n uint64) float64 { return float64(n) * 1000 / float64(max(s.RetiredInsts, 1)) }
	o.metrics["proc.useful_frac"] = float64(s.RetiredInsts) / float64(max(s.RetiredInsts+s.SquashedInsts, 1))
	o.metrics["proc.recoveries_per_1k"] = per1k(s.Recoveries)
	o.metrics["proc.reissues_per_1k"] = per1k(s.Reissues)
	o.metrics["trace.tc_miss_per_1k"] = per1k(s.TCMisses)
	// A trace misprediction is what starts a recovery, so the engine counts
	// both with Stats.Recoveries and the two figures are equal.
	o.metrics["tpred.misp_per_1k"] = s.TraceMispPer1000()
	o.metrics["bpred.misp_per_1k"] = per1k(condMisp)
	o.metrics["cache.ic_miss_per_1k"] = per1k(s.ICMisses)
	o.metrics["cache.dc_miss_per_1k"] = per1k(s.DCMisses)
	o.metrics["core.bit_miss_rate"] = float64(s.BITMisses) / float64(max(s.BITLookups, 1))
	o.metrics["arb.snoop_reissues_per_1k"] = per1k(s.LoadSnoopReissues)
}
