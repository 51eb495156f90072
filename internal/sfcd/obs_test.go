package sfcd

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/obs"
	"sfccover/internal/subscription"
)

// exerciseOps drives one of each core wire op so every op histogram has
// at least one observation.
func exerciseOps(t *testing.T, c *Client, schema *subscription.Schema) {
	t.Helper()
	broad := subscription.MustParse(schema, "volume in [100,900] && price in [10,400]")
	narrow := subscription.MustParse(schema, "volume in [200,300] && price in [50,60]")
	if _, _, _, err := c.Subscribe(bg, broad); err != nil {
		t.Fatal(err)
	}
	sid, err := c.Insert(bg, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(bg, narrow); err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(bg, sid); err != nil {
		t.Fatal(err)
	}
}

// histSample is one parsed sfcd_op_latency_seconds_bucket sample.
type histSample struct {
	le    string
	value uint64
}

// parseOpHistogram extracts the bucket series, _sum and _count for one op
// label from a metrics page, preserving the rendered bucket order.
func parseOpHistogram(t *testing.T, text, op string) (buckets []histSample, sum float64, count uint64) {
	t.Helper()
	bucketPrefix := `sfcd_op_latency_seconds_bucket{op="` + op + `",le="`
	scalarSuffix := `{op="` + op + `"}`
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, bucketPrefix):
			rest := line[len(bucketPrefix):]
			q := strings.Index(rest, `"`)
			if q < 0 {
				t.Fatalf("malformed bucket line: %q", line)
			}
			v, err := strconv.ParseUint(rest[strings.LastIndex(rest, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			buckets = append(buckets, histSample{le: rest[:q], value: v})
		case strings.HasPrefix(line, "sfcd_op_latency_seconds_sum"+scalarSuffix):
			v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
			if err != nil {
				t.Fatalf("sum value in %q: %v", line, err)
			}
			sum = v
		case strings.HasPrefix(line, "sfcd_op_latency_seconds_count"+scalarSuffix):
			v, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("count value in %q: %v", line, err)
			}
			count = v
		}
	}
	return buckets, sum, count
}

// TestMetricsIncludesOpLatencyHistograms is the exposition round-trip
// check: after real traffic the daemon's metrics page must carry
// parseable sfcd_op_latency_seconds histograms for the query, insert and
// remove ops, with cumulative buckets that increase monotonically, end
// in +Inf, and agree with _count.
func TestMetricsIncludesOpLatencyHistograms(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact)
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exerciseOps(t, c, schema)
	// engine_query is a 1-in-TraceSample sample of the engine's queries:
	// enough of them that one is elected.
	narrow := subscription.MustParse(schema, "volume in [200,300] && price in [50,60]")
	for i := 0; i < obs.DefaultTraceSample; i++ {
		if _, _, err := c.Query(bg, narrow); err != nil {
			t.Fatal(err)
		}
	}

	text, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "# TYPE sfcd_op_latency_seconds histogram") {
		t.Fatalf("metrics page lacks the histogram TYPE line:\n%s", text)
	}
	for _, op := range []string{"query", "insert", "remove", "subscribe"} {
		buckets, sum, count := parseOpHistogram(t, text, op)
		if len(buckets) == 0 {
			t.Fatalf("op %q: no bucket samples", op)
		}
		if count == 0 {
			t.Fatalf("op %q: _count is zero after traffic", op)
		}
		if sum <= 0 {
			t.Fatalf("op %q: _sum = %v, want > 0", op, sum)
		}
		last := buckets[len(buckets)-1]
		if last.le != "+Inf" {
			t.Fatalf("op %q: last bucket le = %q, want +Inf", op, last.le)
		}
		if last.value != count {
			t.Fatalf("op %q: +Inf bucket %d != _count %d", op, last.value, count)
		}
		var prev uint64
		for i, b := range buckets {
			if b.value < prev {
				t.Fatalf("op %q: bucket %d (le=%s) value %d below previous %d — cumulative buckets must be monotone",
					op, i, b.le, b.value, prev)
			}
			prev = b.value
		}
	}
	// The engine-internal stage histograms share the page.
	if !strings.Contains(text, `sfcd_op_latency_seconds_count{op="engine_query"}`) {
		t.Fatal("engine stage histogram engine_query missing from the page")
	}
}

// TestOpHistsNameEveryMeteredOp: newOpHists registers one histogram per
// op under a non-empty name of its own, and none for the retired numbers
// or the streaming replicate op.
func TestOpHistsNameEveryMeteredOp(t *testing.T) {
	var names []string
	h := newOpHists(func(op string) *obs.Histogram {
		names = append(names, op)
		return obs.NewHistogram()
	})
	seen := map[string]bool{}
	for _, name := range names {
		if name == "" || seen[name] {
			t.Fatalf("op histogram names %q: each must be non-empty and distinct", names)
		}
		seen[name] = true
	}
	for op := OpNone + 1; op < numOps; op++ {
		if metered := op != OpReplicate && !op.retired(); (h[op] != nil) != metered {
			t.Errorf("op %d (%s): histogram registered = %v, want %v", op, op, h[op] != nil, metered)
		}
	}
	for _, op := range []Opcode{opRetiredCovered, opRetiredRebalance} {
		if !op.retired() {
			t.Errorf("opcode %d is not retired", op)
		}
	}
}

// TestMetricsLinkGaugesEscapedAndCapped checks the per-link gauge block:
// labels are escaped and cardinality is capped with an _other aggregate.
func TestMetricsLinkGaugesEscapedAndCapped(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact)
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sub := subscription.MustParse(schema, "volume in [1,5]")
	// One link with a label-hostile name, plus enough links to overflow
	// the cap. The hostile link gets 2 subscriptions so it sorts first.
	weird := "br\"0\\x\n"
	for i := 0; i < 2; i++ {
		if _, err := c.subOp(bg, OpSubscribe, weird, sub); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < maxLinkLabels+3; i++ {
		link := "link-" + strconv.Itoa(i)
		if _, err := c.subOp(bg, OpSubscribe, link, sub); err != nil {
			t.Fatal(err)
		}
	}

	text, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	want := `sfcd_link_subscriptions{link="br\"0\\x\n"} 2`
	if !strings.Contains(text, want) {
		t.Fatalf("escaped link gauge %q missing from:\n%s", want, text)
	}
	if !strings.Contains(text, `sfcd_link_subscriptions{link="_other"}`) {
		t.Fatal("overflow links must aggregate into link=\"_other\"")
	}
	gauges := strings.Count(text, "sfcd_link_subscriptions{")
	if gauges != maxLinkLabels+1 {
		t.Fatalf("%d link gauge samples, want cap %d + _other", gauges, maxLinkLabels+1)
	}
	wantTotal := "sfcd_links " + strconv.Itoa(maxLinkLabels+4)
	if !strings.Contains(text, wantTotal) {
		t.Fatalf("materialized-links gauge %q missing", wantTotal)
	}
}

// TestTraceOp runs a forced-trace query end to end and checks the wire
// record carries stage timings, per-slice probe counts and cost stats.
func TestTraceOp(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeApprox)
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	broad := subscription.MustParse(schema, "volume in [100,900] && price in [10,400]")
	narrow := subscription.MustParse(schema, "volume in [200,300] && price in [50,60]")
	sid, _, _, err := c.Subscribe(bg, broad)
	if err != nil {
		t.Fatal(err)
	}
	covered, coveredBy, trace, err := c.TraceQuery(bg, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if !covered || coveredBy != sid {
		t.Fatalf("TraceQuery = (%v, %d), want (true, %d)", covered, coveredBy, sid)
	}
	if trace.Op != "query" {
		t.Fatalf("trace.Op = %q, want query", trace.Op)
	}
	if trace.TotalNS <= 0 {
		t.Fatalf("trace.TotalNS = %d, want > 0", trace.TotalNS)
	}
	if trace.StartUnixNS <= 0 {
		t.Fatalf("trace.StartUnixNS = %d, want > 0", trace.StartUnixNS)
	}
	if len(trace.Stages) == 0 {
		t.Fatal("trace carries no stages")
	}
	for _, st := range trace.Stages {
		if st.Name == "" || st.DurNS < 0 {
			t.Fatalf("malformed stage %+v", st)
		}
	}
	if !trace.Cost.Found {
		t.Fatal("trace.Cost.Found = false for a covered query")
	}
	if trace.Cost.RunsProbed <= 0 {
		t.Fatalf("trace.Cost.RunsProbed = %d, want > 0", trace.Cost.RunsProbed)
	}
	// A first touch is answered by the successor walk: the trace names the
	// cut, counts its steps and times it as a stage of its own.
	if trace.Cost.Path != "walk" || trace.Cost.WalkSteps <= 0 || trace.Cost.CubesGenerated != 0 {
		t.Fatalf("trace.Cost = %+v, want a walk-answered query without cubes", trace.Cost)
	}
	walked := false
	for _, st := range trace.Stages {
		walked = walked || (st.Name == "walk" && st.Count == trace.Cost.WalkSteps)
	}
	if !walked {
		t.Fatalf("no walk stage carrying the %d steps in %+v", trace.Cost.WalkSteps, trace.Stages)
	}
	if len(trace.Slices) == 0 {
		t.Fatal("trace carries no per-slice probe counts")
	}

	// The trace op addresses the shared engine only.
	_, err = c.do(bg, &Request{Op: OpTrace, Link: "x", Payload: []byte("ignored")})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeUnsupported {
		t.Fatalf("trace on a link = %v, want code %q", err, CodeUnsupported)
	}
}

// TestSlowLogOp checks the slow-query ring end to end: with a negative
// threshold every traced query lands in the log, and the slowlog op
// returns them newest first with their cost stats.
func TestSlowLogOp(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	eng := engine.MustNew(engine.Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 10000},
		Shards:   4,
		Obs:      obs.New(obs.Config{SlowThreshold: -1, TraceSample: 1}),
	})
	srv := NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	c, err := Dial(addr.String(), schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	broad := subscription.MustParse(schema, "volume in [100,900] && price in [10,400]")
	narrow := subscription.MustParse(schema, "volume in [200,300] && price in [50,60]")
	if _, _, _, err := c.Subscribe(bg, broad); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := c.Query(bg, narrow); err != nil {
			t.Fatal(err)
		}
	}
	traces, err := c.SlowLog(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("slow log is empty with SlowThreshold -1 and TraceSample 1")
	}
	paths := map[string]int{}
	for _, tr := range traces {
		if tr.Op == "" || tr.TotalNS <= 0 {
			t.Fatalf("malformed slow-log trace %+v", tr)
		}
		paths[tr.Cost.Path]++
	}
	// Every line says which cut ended its search: the subscribe's own
	// covering query (a miss) and every touch of the shape walk.
	if paths["walk"] != 6 || len(paths) != 1 {
		t.Fatalf("slow-log paths = %v, want 6 walk", paths)
	}
	// Newest first: start times must not increase.
	for i := 1; i < len(traces); i++ {
		if traces[i].StartUnixNS > traces[i-1].StartUnixNS {
			t.Fatalf("slow log not newest-first: trace %d starts after trace %d", i, i-1)
		}
	}

	_, err = c.do(bg, &Request{Op: OpSlowlog, Link: "x"})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeUnsupported {
		t.Fatalf("slowlog on a link = %v, want code %q", err, CodeUnsupported)
	}
}

// TestClientLatencySnapshot checks the client-side round-trip histograms.
func TestClientLatencySnapshot(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact)
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exerciseOps(t, c, schema)

	lat := c.Latency()
	for _, op := range []string{"query", "insert", "remove", "subscribe", "hello"} {
		s, ok := lat[op]
		if !ok || s.Count == 0 {
			t.Fatalf("client latency snapshot lacks op %q: %+v", op, lat)
		}
		if s.Quantile(0.5) < 0 {
			t.Fatalf("op %q: negative p50", op)
		}
	}
}
