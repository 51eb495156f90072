package sfcd

import (
	"fmt"
	"strconv"
	"strings"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
)

// metricDef describes one exported metric: Prometheus name, type and help
// text. The order here is the order in the rendered exposition.
type metricDef struct {
	name, kind, help string
}

var scalarMetrics = []metricDef{
	{"sfcd_queries_total", "counter", "Logical covering queries served."},
	{"sfcd_hits_total", "counter", "Covering queries that found a cover."},
	{"sfcd_runs_probed_total", "counter", "Ordered-structure descents issued: walk probes and seeks and cube range probes (the paper's unit of query cost)."},
	{"sfcd_cubes_generated_total", "counter", "Standard cubes generated across all cube searches."},
	{"sfcd_shard_searches_total", "counter", "Per-shard searches issued (one per indexed query; one per stripe walked by an exact scan)."},
	{"sfcd_subscriptions", "gauge", "Subscriptions currently held."},
	{"sfcd_shards", "gauge", "Configured shard count."},
	{"sfcd_shard_size_max", "gauge", "Largest shard occupancy."},
	{"sfcd_shard_size_min", "gauge", "Smallest shard occupancy."},
	{"sfcd_shard_skew_ratio", "gauge", "Max/min shard occupancy ratio (min clamped to 1); 1.0 is balanced."},
	{"sfcd_rebalances_total", "counter", "Rebalance passes that moved at least one slice boundary."},
	{"sfcd_boundary_moves_total", "counter", "Slice boundary moves performed by the rebalancer."},
	{"sfcd_migrated_entries_total", "counter", "Index entries migrated across slice boundaries."},
	{"sfcd_snapshots_total", "counter", "Durable-state snapshots taken (store-wide)."},
	{"sfcd_snapshot_hold_seconds", "gauge", "How long the last snapshot held writers: its capture under the cut."},
	{"sfcd_snapshot_seconds", "gauge", "The last snapshot's whole length, capture and write."},
	{"sfcd_wal_records_total", "counter", "Write-ahead-log records appended over the store's lifetime."},
	{"sfcd_wal_bytes_total", "counter", "Write-ahead-log bytes appended over the store's lifetime."},
}

// RenderPrometheus renders a provider snapshot in the Prometheus text
// exposition format (version 0.0.4): for every metric a `# HELP` line, a
// `# TYPE` line and one sample line, plus one `sfcd_shard_size{shard="i"}`
// sample per shard. Integral counters are rendered from their native
// integer type — never through float64, whose 53-bit mantissa would
// silently round counters past 2^53 (lifetime WAL bytes get there).
func RenderPrometheus(ps core.ProviderStats) string {
	var sb strings.Builder
	values := []string{
		strconv.Itoa(ps.Queries),
		strconv.Itoa(ps.Hits),
		strconv.Itoa(ps.RunsProbed),
		strconv.Itoa(ps.CubesGenerated),
		strconv.Itoa(ps.ShardSearches),
		strconv.Itoa(ps.Subscriptions),
		strconv.Itoa(ps.Shards),
		strconv.Itoa(ps.MaxShardSize),
		strconv.Itoa(ps.MinShardSize),
		formatSample(ps.SkewRatio),
		strconv.Itoa(ps.Rebalances),
		strconv.Itoa(ps.BoundaryMoves),
		strconv.Itoa(ps.MigratedEntries),
		strconv.Itoa(ps.Snapshots),
		formatSample(ps.SnapshotHold.Seconds()),
		formatSample(ps.SnapshotTime.Seconds()),
		strconv.Itoa(ps.WALRecords),
		strconv.FormatInt(ps.WALBytes, 10),
	}
	for i, m := range scalarMetrics {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			m.name, m.help, m.name, m.kind, m.name, values[i])
	}
	sb.WriteString("# HELP sfcd_queries_by_path_total Queries by the cut that ended the search: successor walk, cube search.\n# TYPE sfcd_queries_by_path_total counter\n")
	for p := dominance.PathWalk; p < dominance.NumPaths; p++ {
		fmt.Fprintf(&sb, "sfcd_queries_by_path_total{path=\"%s\"} %d\n", p, ps.PathQueries[p])
	}
	sb.WriteString("# HELP sfcd_shard_size Per-shard subscription count.\n# TYPE sfcd_shard_size gauge\n")
	for i, n := range ps.ShardSizes {
		fmt.Fprintf(&sb, "sfcd_shard_size{shard=\"%d\"} %d\n", i, n)
	}
	return sb.String()
}

// formatSample prints a genuinely floating-point value (the skew ratio,
// the snapshot gauges' seconds)
// the way Prometheus parsers expect: integral values without an
// exponent, ratios with a short decimal form. Integral counters do NOT
// go through here — see RenderPrometheus.
func formatSample(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
