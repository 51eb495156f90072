package sfcd

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"sfccover/internal/obs"
	"sfccover/internal/subscription"
)

// maxLinkLabels bounds the cardinality of the per-link subscription
// gauge: the largest namespaces get their own label, everything past the
// cap aggregates into link="_other". Link names are client-chosen
// strings, so an unbounded label set would let one misbehaving router
// blow up every scrape.
const maxLinkLabels = 16

// metricName is the label an op records under in the latency
// histograms. Most ops keep their protocol name; the unsubscribe pair is
// renamed to the engine's vocabulary so dashboards read
// query/insert/remove consistently across tiers.
func (op Opcode) metricName() string {
	switch op {
	case OpUnsubscribe:
		return "remove"
	case OpUnsubscribeBatch:
		return "remove_batch"
	}
	return op.String()
}

// opHists is the per-request path's view of the op latency histograms:
// every op's histogram is resolved once, up front, so recording a request
// costs one array index by opcode — never the registry's lock
// (Registry.Hist takes an RWMutex; sfclint's hotpathclock bans it on the
// request path). Both the server's and the client's request loops record
// through one of these. OpReplicate has no histogram: a stream's lifetime
// is not a latency, so the streaming op is never metered per-request.
type opHists [numOps]*obs.Histogram

// newOpHists resolves every op's histogram from the given registry lookup
// (Observer.Hist or Registry.Hist).
func newOpHists(hist func(op string) *obs.Histogram) *opHists {
	var h opHists
	for op := OpNone + 1; op < numOps; op++ {
		if op != OpReplicate && !op.retired() {
			h[op] = hist(op.metricName())
		}
	}
	return &h
}

// observe records one request's latency against its op. Nil-safe twice
// over: callers with telemetry off hold a nil *opHists, and an opcode the
// vocabulary does not know (answered unknown_op) or does not meter
// indexes a nil histogram, whose Observe is a no-op.
//
//sfc:hotpath
func (h *opHists) observe(op Opcode, d time.Duration) {
	if h == nil || op >= numOps {
		return
	}
	h[op].Observe(d)
}

// bodyResponse wraps an introspection record (Stats, Trace, []Trace) as a successful response's opaque JSON body. These bodies are
// operator-facing and cold; they are the only place the protocol still
// reaches for reflection.
func bodyResponse(v any) Response {
	body, err := json.Marshal(v)
	if err != nil {
		return errResponse(err)
	}
	return Response{OK: true, Body: body}
}

// decodeBody is bodyResponse's client half.
func decodeBody(resp *Response, v any) error {
	if err := json.Unmarshal(resp.Body, v); err != nil {
		return fmt.Errorf("sfcd: malformed %s body: %w", resp.Op, err)
	}
	return nil
}

// MetricsText renders the daemon's full Prometheus page: the shared
// provider's scalar counters, the op/stage latency histograms
// (sfcd_op_latency_seconds) and the bounded per-link subscription
// gauges. Served by the metrics op (empty link) and the HTTP /metrics
// endpoint.
func (s *Server) MetricsText() string {
	var sb strings.Builder
	// A follower's shared provider and links are cold until promotion
	// hydrates them (racing that hydration is the other reason to skip:
	// serve() orders provider access after the primary flag, and so does
	// this).
	primary := s.primary.Load()
	if primary {
		sb.WriteString(RenderPrometheus(s.shared.Stats()))
	}
	if s.obs != nil {
		obs.RenderHistograms(&sb, "sfcd_op_latency_seconds",
			"Latency of daemon operations and engine stages, by op.",
			s.obs.Registry().Snapshot())
	}
	if primary {
		s.renderLinkGauges(&sb)
	}
	s.renderReplication(&sb, primary)
	return sb.String()
}

// renderReplication appends the replication/role gauges: which side this
// daemon is, the stream positions both sides agree on, and the lifetime
// stream counters. Rendered on every daemon with a store so dashboards
// need no scrape-config split between primaries and followers.
func (s *Server) renderReplication(sb *strings.Builder, primary bool) {
	role := 0
	if primary {
		role = 1
	}
	fmt.Fprintf(sb, "# HELP sfcd_primary Whether this daemon serves as primary (1) or follower (0).\n# TYPE sfcd_primary gauge\nsfcd_primary %d\n", role)
	if s.store == nil {
		return
	}
	pos := s.store.Pos()
	fmt.Fprintf(sb, "# HELP sfcd_replication_pos Replication stream position this daemon has durably applied.\n# TYPE sfcd_replication_pos gauge\nsfcd_replication_pos %d\n", pos)
	fmt.Fprintf(sb, "# HELP sfcd_replication_followers Follower streams currently being served.\n# TYPE sfcd_replication_followers gauge\nsfcd_replication_followers %d\n", s.repFollowers.Value())
	fmt.Fprintf(sb, "# HELP sfcd_replication_streamed_records_total Records streamed out to followers.\n# TYPE sfcd_replication_streamed_records_total counter\nsfcd_replication_streamed_records_total %d\n", s.repStreamed.Value())
	fmt.Fprintf(sb, "# HELP sfcd_replication_applied_records_total Records applied from a primary's stream.\n# TYPE sfcd_replication_applied_records_total counter\nsfcd_replication_applied_records_total %d\n", s.repApplied.Value())
	fmt.Fprintf(sb, "# HELP sfcd_replication_resets_total Full-state resets installed from a primary's stream.\n# TYPE sfcd_replication_resets_total counter\nsfcd_replication_resets_total %d\n", s.repResets.Value())
	fmt.Fprintf(sb, "# HELP sfcd_replication_reconnects_total Stream connection attempts to the primary.\n# TYPE sfcd_replication_reconnects_total counter\nsfcd_replication_reconnects_total %d\n", s.repReconnects.Value())
	if !primary {
		primaryPos := s.repPrimaryPos.Value()
		lag := primaryPos - int64(pos)
		if lag < 0 {
			lag = 0
		}
		fmt.Fprintf(sb, "# HELP sfcd_replication_lag Records the primary has committed that this follower has not yet applied (as of the last stream frame).\n# TYPE sfcd_replication_lag gauge\nsfcd_replication_lag %d\n", lag)
	}
}

// renderLinkGauges appends a links-materialized gauge and a per-link
// subscription gauge capped at maxLinkLabels labels (largest first,
// remainder summed into link="_other").
func (s *Server) renderLinkGauges(sb *strings.Builder) {
	type linkSize struct {
		name string
		n    int
	}
	s.linkMu.Lock()
	sizes := make([]linkSize, 0, len(s.links))
	for name, p := range s.links {
		sizes = append(sizes, linkSize{name, p.Stats().Subscriptions})
	}
	s.linkMu.Unlock()
	if len(sizes) == 0 {
		return
	}
	sort.Slice(sizes, func(a, b int) bool {
		if sizes[a].n != sizes[b].n {
			return sizes[a].n > sizes[b].n
		}
		return sizes[a].name < sizes[b].name
	})
	fmt.Fprintf(sb, "# HELP sfcd_links Link namespaces currently materialized.\n# TYPE sfcd_links gauge\nsfcd_links %d\n", len(sizes))
	sb.WriteString("# HELP sfcd_link_subscriptions Subscriptions per link namespace (largest links; the rest aggregate into link=\"_other\").\n# TYPE sfcd_link_subscriptions gauge\n")
	other := 0
	for i, ls := range sizes {
		if i < maxLinkLabels {
			fmt.Fprintf(sb, "sfcd_link_subscriptions{link=\"%s\"} %d\n", obs.EscapeLabel(ls.name), ls.n)
			continue
		}
		other += ls.n
	}
	if len(sizes) > maxLinkLabels {
		fmt.Fprintf(sb, "sfcd_link_subscriptions{link=\"_other\"} %d\n", other)
	}
}

// traceToWire converts an engine trace record into its wire form.
func traceToWire(tr *obs.QueryTrace) Trace {
	t := Trace{
		Op:          tr.Op,
		StartUnixNS: tr.Start.UnixNano(),
		TotalNS:     int64(tr.Total),
		Slices:      append([]int(nil), tr.Slices...),
		Cost: TraceCost{
			Path:           tr.Cost.Path,
			M:              tr.Cost.M,
			CubesGenerated: tr.Cost.CubesGenerated,
			RunsProbed:     tr.Cost.RunsProbed,
			WalkSteps:      tr.Cost.WalkSteps,
			VolumeFraction: tr.Cost.VolumeFraction,
			AspectRatio:    tr.Cost.AspectRatio,
			Found:          tr.Cost.Found,
		},
	}
	for _, st := range tr.Stages {
		t.Stages = append(t.Stages, TraceStage{Name: st.Name, DurNS: int64(st.Dur), Count: st.Count})
	}
	return t
}

// trace serves the trace op: run one covering query against the shared
// engine with tracing forced on and return the full trace record
// alongside the query outcome. Link namespaces are plain detectors
// without the traced pipeline, so a non-empty link is unsupported.
func (s *Server) trace(sc *reqScratch) Response {
	if sc.req.Link != "" {
		return Response{OK: false, Code: CodeUnsupported, Error: "trace addresses the shared engine only"}
	}
	if err := subscription.UnmarshalSubscriptionInto(sc.sub, sc.req.Payload); err != nil {
		return badRequest(err)
	}
	res, tr := s.eng.TraceCover(sc.sub)
	if res.Err != nil {
		return errResponse(res.Err)
	}
	resp := bodyResponse(traceToWire(tr))
	resp.Result = Result{Covered: res.Covered, CoveredBy: res.CoveredBy}
	return resp
}

// slowlog serves the slowlog op: the daemon's ring of recent slow-query
// traces, newest first. With telemetry off the response is an empty
// (but OK) batch.
func (s *Server) slowlog(link string) Response {
	if link != "" {
		return Response{OK: false, Code: CodeUnsupported, Error: "slowlog addresses the shared engine only"}
	}
	var out []Trace
	if s.obs != nil {
		traces := s.obs.SlowLog().Snapshot()
		out = make([]Trace, len(traces))
		for i := range traces {
			out[i] = traceToWire(&traces[i])
		}
	}
	return bodyResponse(out)
}
