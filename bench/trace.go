package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

const traceFilePattern = "trace-<workload>.json"

// workloadSpanCap bounds the workload-op spans kept for the trace file;
// past it the wrapper still reads the clock and takes the lock, so the
// overhead it prices stays the same.
const workloadSpanCap = 1 << 14

// spanned wraps a workload so that every step is recorded as a span, the
// way the ladder records a layer call. It exists to price the instrument:
// trace.overhead_ratio compares its throughput with the bare workload's.
type spanned struct {
	workload
	tr *tracer
	mu sync.Mutex // the (at most 2) clients append to one span slice
	n  int
}

func (s *spanned) step(c int) time.Duration {
	start := time.Now()
	skip := s.workload.step(c)
	end := time.Now()
	s.mu.Lock()
	s.n++
	if len(s.tr.spans) < workloadSpanCap {
		s.tr.spans = append(s.tr.spans, span{len(s.tr.spans) + 1, -s.n, "workload.op",
			start.Sub(s.tr.t0).Nanoseconds(), end.Sub(s.tr.t0).Nanoseconds(), 0})
	}
	s.mu.Unlock()
	return skip
}

// runTraced is the -trace 1 run: the workload runs bare and then spanned
// (for the instrument's own cost and the oracle's verdict), then the
// ladder and the standalone probes produce every per-layer metric. The
// ladder replays the workload's query shapes; the write shapes and the
// probes' inputs come from the same seed.
func runTraced(name string, w workload, o options, sc scale, d time.Duration) (report, map[string]string, error) {
	out := metrics{}
	detail := map[string]string{}
	schema := newSchema()
	in, err := plantedPairs(schema, o.seed, sc.population)
	if err != nil {
		return report{}, nil, err
	}

	// 1. The workload itself, bare then spanned.
	cal := newRefKernel()
	detail["box_speed_at_start"] = fmt.Sprintf("%.4f", cal.boxSpeed())
	if err := w.build(); err != nil {
		return report{}, nil, fmt.Errorf("set-up: %w", err)
	}
	drive(w, sc.warm, w.warmOps(), nil)
	w.startTimed()
	runtime.GC()
	lat := make([]samples, w.clients())
	for c := range lat {
		lat[c] = make(samples, 0, 1<<20)
	}
	// Both parts run whole cycles of the workload's input (the overlay's
	// op cost follows its subscription pool round), or their throughputs
	// would compare different stretches of it.
	cycle := w.warmOps() / warmCycles
	m0 := mallocs()
	bare := drive(w, d/4, cycle, lat)
	allocs := float64(mallocs()-m0) / float64(bare.ops)
	// The bare part's own median, rescaled like the ladder's spans, for
	// setting beside them: both come from the same minute.
	detail["untraced_op_p50_ns"] = fmt.Sprintf("%.0f", summarize(bare, lat).p50.quartile)
	tr := newTracer()
	// Zero-capacity sample buffers: nothing is kept, but the spanned part
	// then runs the reference kernel exactly as the bare part did.
	traced := drive(&spanned{workload: w, tr: tr}, d/4, cycle, make([]samples, w.clients()))
	v, err := w.check()
	w.close() // free the workload's heap before the ladder is timed
	if err != nil {
		return report{}, nil, fmt.Errorf("oracle: %w", err)
	}
	bareRate := float64(bare.ops) / bare.wall.Seconds()
	out.ratio("trace.overhead_ratio", float64(traced.ops)/traced.wall.Seconds()/bareRate)
	out.count("proc.allocs_per_op", allocs)
	detail["untraced_ops_per_s"] = fmt.Sprintf("%.1f", bareRate)

	// 2. The ladder.
	li, err := newLadderInputs(name, schema, in, o.seed, sc)
	if err != nil {
		return report{}, nil, err
	}
	r, err := newRungs(schema, in.parents, o.tmpDir)
	if err != nil {
		return report{}, nil, fmt.Errorf("ladder set-up: %w", err)
	}
	defer r.close()
	l := newLadder(r, tr, ladderRoot(name))
	l.run(li, sc.ladderOps)
	ladderMetrics(l, out)

	// 3. Probes.
	hot := in.children[:min(hotShapes, len(in.children)/2)]
	reps := max(sc.ladderOps/32, 4)
	writes := li.writes[:min(4*reps, len(li.writes))]
	var brokerP50, brokerSpeed float64
	for _, p := range []struct {
		name  string
		probe func(metrics) error
	}{
		{"persist", func(m metrics) error { return persistProbes(r, m) }},
		{"leaf", func(m metrics) error { return leafProbes(schema, in, li.queries, m) }},
		{"engine", func(m metrics) error {
			return engineProbes(schema, in, hot, reps, sc.warm/8+time.Millisecond, m)
		}},
		{"wire", func(m metrics) error { return wireProbes(schema, in, hot, reps, m) }},
		{"replication", func(m metrics) error {
			return replicationProbes(schema, in, writes, r.wire.cl, o.tmpDir, m)
		}},
		{"broker", func(m metrics) (err error) {
			brokerP50, err = brokerProbes(schema, o.seed, sc, max(sc.ladderOps/8, 20), tr, m)
			return err
		}},
	} {
		speed, err := stage(out, cal, p.probe)
		if err != nil {
			return report{}, nil, fmt.Errorf("%s probes: %w", p.name, err)
		}
		if p.name == "broker" {
			brokerSpeed = speed
		}
	}

	path := filepath.Join(o.outDir, "trace-"+name+".json")
	if err := tr.write(path); err != nil {
		return report{}, nil, err
	}
	detail["box_speed_at_end"] = fmt.Sprintf("%.4f", cal.boxSpeed())
	detail["trace_file"] = path
	detail["trace_spans"] = fmt.Sprint(len(tr.spans))
	detail["ladder_ops"] = fmt.Sprint(l.ops)
	detail["ladder_root"] = ladderRoot(name)
	detail["ladder_root_p50_ns"] = fmt.Sprintf("%.0f", l.rootP50(name))
	if name == "overlay_pubsub" {
		// The overlay's own stack is the broker alone; its spans come
		// from the broker probe (a fresh overlay, caches still cold).
		detail["ladder_root"], detail["ladder_root_p50_ns"] = "broker", fmt.Sprintf("%.0f", brokerP50*brokerSpeed)
	}
	for _, kind := range []opName{ladderQuery, ladderAdd, ladderRemove} {
		for rung, rn := range rungNames {
			detail[fmt.Sprintf("span_ns.%s.%s", rn, kind)] = fmt.Sprintf("%.0f", l.spanNS(kind, rung))
		}
	}

	failed := v.failed + int64(l.errs)
	for _, n := range perLayerNames {
		if _, ok := out[n]; !ok {
			return report{}, nil, fmt.Errorf("per-layer metric %s was not measured", n)
		}
	}
	return report{
		Correct:   failed == 0,
		Attempted: bare.ops + traced.ops + int64(l.ops),
		Failed:    failed,
		Metrics:   out,
	}, detail, nil
}

// stage runs one group of probes and rescales the times it measured by
// the box's speed around it, as the slices of an untraced run are. Counts,
// bytes and ratios pass through. It returns the speed it applied.
func stage(out metrics, cal *refKernel, probe func(metrics) error) (speed float64, err error) {
	got := metrics{}
	before := cal.boxSpeed()
	if err := probe(got); err != nil {
		return 0, err
	}
	speed = (before + cal.boxSpeed()) / 2
	for name, m := range got {
		switch m.Unit {
		case "ns", "us", "ms", "s":
			m.Value *= speed
		}
		out[name] = m
	}
	return speed, nil
}

// ladderRoot is the top rung of the workload's own stack.
func ladderRoot(name string) string {
	switch name {
	case "churn_durable":
		return "persist"
	case "wire_mixed":
		return "sfcd"
	}
	return "engine"
}

// ladderMetrics turns the ladder's spans and the rungs' own counters into
// the per-layer metrics.
func ladderMetrics(l *ladder, out metrics) {
	out.ns("dominance.query_self_ns", l.selfNS(ladderQuery, 0))
	for rung, name := range rungNames[1:4] {
		rung++
		for _, kind := range []opName{ladderQuery, ladderAdd, ladderRemove} {
			out.ns(fmt.Sprintf("%s.%s_self_ns", name, kind), l.selfNS(kind, rung))
		}
	}
	out.ns("sfcd.query_self_ns", l.selfNS(ladderQuery, 4))
	out.ns("sfcd.subscribe_self_ns", l.selfNS(ladderAdd, 4))
	out.ns("sfcd.unsubscribe_self_ns", l.selfNS(ladderRemove, 4))

	r := l.r
	if r.queries > 0 {
		q := float64(r.queries)
		out.count("dominance.probes_per_query", float64(r.probes)/q)
		out.count("cubes.cubes_per_query", float64(r.cubes)/q)
		out.ratio("dominance.found_ratio", float64(r.found)/q)
	}
	if n := l.cacheHits + l.cacheMisses; n > 0 {
		out.ratio("dominance.cache_hit_ratio", float64(l.cacheHits)/float64(n))
	}
	if l.writeOps > 0 {
		out["persist.wal_bytes_per_op"] = metric{float64(l.walBytes) / float64(l.writeOps), "B"}
		out.count("persist.wal_records_per_op", float64(l.walRecords)/float64(l.writeOps))
	}
}

// endToEndNames and perLayerNames are the metric names BENCHMARK.json
// declares; bench_test.go holds the two in step.
var endToEndNames = []string{
	"ops_per_s", "op_p50_us", "op_p99_us", "cpu_us_per_op", "heap_live_mb", "cover_recall", "setup_s",
}

var perLayerNames = []string{
	"sfc.key_ns",
	"cubes.decompose_ns", "cubes.cubes_per_query",
	"sfcarray.probe_ns", "sfcarray.insert_ns", "sfcarray.delete_ns", "sfcarray.bulkload_ns_per_entry",
	"dominance.query_self_ns", "dominance.probes_per_query", "dominance.cache_hit_ratio", "dominance.found_ratio",
	"core.find_cover_self_ns", "core.add_self_ns", "core.remove_self_ns",
	"engine.find_cover_self_ns", "engine.add_self_ns", "engine.remove_self_ns",
	"engine.batch_query_ns_per_item", "engine.shard_searches_per_query", "engine.skew_ratio",
	"persist.find_cover_self_ns", "persist.add_self_ns", "persist.remove_self_ns",
	"persist.wal_bytes_per_op", "persist.wal_records_per_op", "persist.snapshot_ms",
	"persist.recover_s", "persist.disk_bytes_per_sub",
	"subscription.marshal_ns", "subscription.unmarshal_ns", "subscription.wire_bytes",
	"sfcd.query_self_ns", "sfcd.subscribe_self_ns", "sfcd.unsubscribe_self_ns",
	"sfcd.allocs_per_req", "sfcd.wire_bytes_per_req", "sfcd.batch_query_ns_per_item", "sfcd.pipelined16_ns_per_op",
	"sfcd.durable_subscribe_self_ns", "sfcd.replicated_subscribe_ns", "sfcd.replication_lag_ms",
	"broker.subscribe_ns", "broker.unsubscribe_ns", "broker.publish_ns",
	"broker.msgs_per_subscribe", "broker.event_msgs_per_publish", "broker.suppressed_ratio", "broker.table_rows",
	"broker.forward_query_p50_us", "broker.delivery_p50_us", "broker.delivery_p99_us",
	"obs.telemetry_overhead_ratio",
	"proc.allocs_per_op",
	"trace.overhead_ratio",
}
