package sfcd

import (
	"errors"
	"strings"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// startPrefixServer serves an eight-shard engine in ModeOff, which keeps
// the arrival path to pure placement — all skew needs.
func startPrefixServer(t *testing.T, schema *subscription.Schema) string {
	t.Helper()
	eng := engine.MustNew(engine.Config{
		Detector:  core.Config{Schema: schema, Mode: core.ModeOff},
		Shards:    8,
		Partition: engine.PartitionPrefix,
		Workers:   4,
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
	return addr.String()
}

func TestRebalanceOp(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	addr := startPrefixServer(t, schema)
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: 1500, Dist: workload.DistHotspot,
		WidthFrac: 0.02, HotspotFrac: 0.9, HotspotWidthFrac: 0.04, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubscribeBatch(bg, subs); err != nil {
		t.Fatal(err)
	}
	before, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if before.SkewRatio < 2 {
		t.Fatalf("precondition: hotspot load not skewed (%.2f, sizes %v)", before.SkewRatio, before.ShardSizes)
	}
	if before.Rebalances != 0 || before.BoundaryMoves != 0 {
		t.Fatalf("counters must start zero: %+v", before)
	}

	totalMoves, totalMigrated := 0, 0
	var last RebalanceInfo
	for pass := 0; pass < 20; pass++ {
		res, err := c.Rebalance(bg)
		if err != nil {
			t.Fatal(err)
		}
		totalMoves += res.Moves
		totalMigrated += res.Migrated
		last = res
		if res.Moves == 0 {
			break
		}
	}
	if totalMoves == 0 || totalMigrated == 0 {
		t.Fatalf("rebalance over the wire moved nothing (moves=%d migrated=%d)", totalMoves, totalMigrated)
	}
	if last.SkewAfter > last.SkewBefore {
		t.Fatalf("pass reported worsening skew: %+v", last)
	}

	after, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if after.SkewRatio >= before.SkewRatio {
		t.Fatalf("SkewRatio %.2f did not improve on %.2f", after.SkewRatio, before.SkewRatio)
	}
	if after.Subscriptions != before.Subscriptions {
		t.Fatalf("rebalance changed the population: %d -> %d", before.Subscriptions, after.Subscriptions)
	}
	if after.Rebalances < 1 || after.BoundaryMoves != totalMoves || after.MigratedEntries != totalMigrated {
		t.Fatalf("stats counters out of sync: %+v (want %d moves, %d migrated)", after, totalMoves, totalMigrated)
	}

	metrics, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sfcd_rebalances_total", "sfcd_boundary_moves_total", "sfcd_migrated_entries_total"} {
		if !strings.Contains(metrics, name) {
			t.Errorf("metrics exposition lacks %s", name)
		}
		if strings.Contains(metrics, name+" 0\n") {
			t.Errorf("%s still zero after a rebalance", name)
		}
	}
}

// TestRebalanceOpLinearEngine: every engine has movable slice boundaries,
// the linear-strategy exact reference included, so the op succeeds on the
// shared namespace. A link namespace is a plain Detector without them: the
// op answers with the unsupported code there, and the remote provider
// translates it to core.ErrUnsupported.
func TestRebalanceOpLinearEngine(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact) // StrategyLinear underneath
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Rebalance(bg); err != nil {
		t.Fatalf("Rebalance on a linear-strategy engine = %v, want success", err)
	}
	shared, err := c.Provider("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shared.Rebalance(); err != nil {
		t.Fatalf("RemoteProvider.Rebalance on the shared engine = %v, want success", err)
	}
	link, err := c.Provider("b0-n1")
	if err != nil {
		t.Fatal(err)
	}
	var se *ServerError
	if err := c.bodyOp(bg, OpRebalance, "b0-n1", new(RebalanceInfo)); !errors.As(err, &se) || se.Code != CodeUnsupported {
		t.Fatalf("Rebalance on a link = %v, want a CodeUnsupported server error", err)
	}
	if _, err := link.Rebalance(); !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("RemoteProvider.Rebalance on a link = %v, want core.ErrUnsupported", err)
	}
}

// TestRemoteBatchWritePlumbing pins that AddBatch/RemoveBatch genuinely
// ride the batch wire ops in one round trip each and keep slot alignment
// through per-item failures.
func TestRemoteBatchWritePlumbing(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact)
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rp, err := c.Provider("batch-link")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	wide := subscription.MustParse(schema, "volume <= 1020 && price <= 1020")
	narrow := subscription.MustParse(schema, "volume in [5,1000] && price in [5,1000]")
	foreign := subscription.New(subscription.MustSchema(8, "volume", "price"))

	first := rp.AddBatch([]*subscription.Subscription{wide})
	if first[0].Err != nil || first[0].ID == 0 {
		t.Fatalf("AddBatch([wide]) = %+v", first[0])
	}
	res := rp.AddBatch([]*subscription.Subscription{narrow, foreign})
	if res[0].Err != nil || !res[0].Covered || res[0].CoveredBy != first[0].ID {
		t.Fatalf("AddBatch narrow = %+v, want covered by %d", res[0], first[0].ID)
	}
	if res[1].Err == nil {
		t.Fatal("foreign-schema slot must fail without poisoning the batch")
	}
	if rp.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rp.Len())
	}
	errs := rp.RemoveBatch([]uint64{first[0].ID, 9999})
	if errs[0] != nil || errs[1] == nil {
		t.Fatalf("RemoveBatch = %v, want [nil, error]", errs)
	}
	if rp.Len() != 1 {
		t.Fatalf("Len = %d after batch remove, want 1", rp.Len())
	}
}
