package sfcd

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/subscription"
)

// promLine matches one Prometheus text-exposition sample:
// name, optional {labels}, one float value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|NaN|[+-]Inf)$`)

// promComment matches the HELP/TYPE comment lines.
var promComment = regexp.MustCompile(`^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped))$`)

func TestMetricsOpRendersParsableExposition(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeApprox) // SFC strategy: the per-path counters move
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Put some load on the counters first.
	broad := subscription.MustParse(schema, "volume in [100,900] && price in [10,400]")
	narrow := subscription.MustParse(schema, "volume in [200,300] && price in [50,60]")
	if _, _, _, err := c.Subscribe(bg, broad); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Subscribe(bg, narrow); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(bg, narrow); err != nil {
		t.Fatal(err)
	}

	text, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(text, "\n") {
		t.Fatal("exposition must end in a newline")
	}
	samples := make(map[string]float64)
	byPath := make(map[string]float64) // sfcd_queries_by_path_total, by label
	helped := make(map[string]bool)
	typed := make(map[string]bool)
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !promComment.MatchString(line) {
				t.Fatalf("line %d is not a valid HELP/TYPE comment: %q", i+1, line)
			}
			fields := strings.Fields(line)
			if fields[1] == "HELP" {
				helped[fields[2]] = true
			} else {
				typed[fields[2]] = true
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line %d is not a valid sample: %q", i+1, line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatalf("line %d value: %v", i+1, err)
		}
		samples[name] = v // per-shard samples collapse; fine for this check
		if name == "sfcd_queries_by_path_total" {
			byPath[line[strings.Index(line, "{"):strings.Index(line, "}")+1]] = v
		}
		// Histogram samples carry the _bucket/_sum/_count suffixes; their
		// HELP/TYPE comments name the base metric, per the exposition spec.
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, suffix); trimmed != name && typed[trimmed] {
				base = trimmed
				break
			}
		}
		if !helped[base] || !typed[base] {
			t.Fatalf("line %d: sample %q precedes its HELP/TYPE comments", i+1, name)
		}
	}
	if got := samples["sfcd_subscriptions"]; got != 2 {
		t.Fatalf("sfcd_subscriptions = %v, want 2", got)
	}
	if got := samples["sfcd_queries_total"]; got < 3 {
		t.Fatalf("sfcd_queries_total = %v, want >= 3", got)
	}
	// One counter per cut, and together they account for every query.
	if len(byPath) != 2 || byPath[`{path="walk"}`] < 3 ||
		byPath[`{path="walk"}`]+byPath[`{path="cubes"}`] != samples["sfcd_queries_total"] {
		t.Fatalf("sfcd_queries_by_path_total = %v against %v queries", byPath, samples["sfcd_queries_total"])
	}
	if got := samples["sfcd_shards"]; got != 4 {
		t.Fatalf("sfcd_shards = %v, want 4", got)
	}
	if _, ok := samples["sfcd_shard_size"]; !ok {
		t.Fatal("per-shard sfcd_shard_size samples missing")
	}
	if _, ok := samples["sfcd_shard_skew_ratio"]; !ok {
		t.Fatal("sfcd_shard_skew_ratio missing")
	}
}

func TestStatsIncludesSkew(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact)
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.Subscribe(bg, subscription.MustParse(schema, "volume in [1,2]")); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Subscriptions != 1 || st.MaxShardSize != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// One sub across 4 shards: min 0, clamped denominator -> skew = max.
	if st.SkewRatio != 1 {
		t.Fatalf("SkewRatio = %v, want 1 (max 1 / clamped min 1)", st.SkewRatio)
	}
	if st.Rebalances != 0 || st.BoundaryMoves != 0 {
		t.Fatalf("counters must start zero: %+v", st)
	}

	// Nothing on the wire starts a rebalance pass; the daemon's write path
	// does, and stats and metrics are where an operator sees that it did.
	// A cluster subscribed one at a time lands in one slice until the
	// engine moves its boundaries.
	const cluster = 400
	for i := 0; i < cluster; i++ {
		v, p := 400+i%20, 600+i/20
		s := subscription.MustParse(schema, fmt.Sprintf("volume in [%d,%d] && price in [%d,%d]", v, v+3, p, p+3))
		if _, err := c.Insert(bg, s); err != nil {
			t.Fatal(err)
		}
	}
	if st, err = c.Stats(bg); err != nil {
		t.Fatal(err)
	}
	if st.Subscriptions != cluster+1 {
		t.Fatalf("rebalancing changed the population: %d, want %d", st.Subscriptions, cluster+1)
	}
	if st.Rebalances < 1 || st.BoundaryMoves < st.Rebalances || st.MigratedEntries < st.BoundaryMoves {
		t.Fatalf("the write path never rebalanced: %+v", st)
	}
	if st.SkewRatio >= float64(cluster)/2 {
		t.Fatalf("SkewRatio %.2f: the cluster still sits in one slice (sizes %v)", st.SkewRatio, st.ShardSizes)
	}
	metrics, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sfcd_rebalances_total", "sfcd_boundary_moves_total", "sfcd_migrated_entries_total"} {
		if !strings.Contains(metrics, name) || strings.Contains(metrics, name+" 0\n") {
			t.Errorf("metrics exposition lacks a non-zero %s", name)
		}
	}
}
