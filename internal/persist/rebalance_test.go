package persist_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/persist"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// TestSnapshotMidRebalanceRecovery pins the rebalancing × persistence
// interaction: a snapshot races an in-flight rebalance pass on an engine
// a hotspot has skewed, and recovery from that data dir must be
// indistinguishable from a clean rebuild of the same subscription set —
// identical FindCover answers, identical occupancy skew, and
// zero rebalance counters (persistence stores the subscription set, never
// the slice layout, so a recovered engine chooses its boundaries from the
// recovered set like any bulk load, no matter what the rebalancer was
// doing when the snapshot was cut).
func TestSnapshotMidRebalanceRecovery(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	mkEngine := func() *engine.Engine {
		return engine.MustNew(engine.Config{
			Detector: core.Config{
				Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3,
				MaxCubes: 5000, Seed: 3,
			},
			Shards:    8,
			Partition: engine.PartitionPrefix,
		})
	}
	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: 2000, Dist: workload.DistHotspot,
		WidthFrac: 0.02, HotspotFrac: 0.9, HotspotWidthFrac: 0.04, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	probes, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: 200, Dist: workload.DistHotspot,
		WidthFrac: 0.01, HotspotFrac: 0.9, HotspotWidthFrac: 0.04, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The answer fingerprint records only (found, stats-free) outcomes:
	// hotspot probes can have many covers, so the id is pinned only
	// through Subscription round-trips below, not in the fingerprint.
	fingerprint := func(p core.Provider) string {
		out := ""
		for i, q := range probes {
			_, found, _, err := p.FindCover(q)
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("c%d:%v;", i, found)
		}
		return out
	}

	dir := t.TempDir()
	st, err := persist.Open(dir, schema, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := mkEngine()
	d, err := st.Durable("", eng)
	if err != nil {
		t.Fatal(err)
	}
	// A uniform base load places the boundaries; the hotspot arriving
	// behind it is the drift that skews them.
	base, err := workload.Subscriptions(workload.SubSpec{Schema: schema, N: 600, WidthFrac: 0.02, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	subs = append(base, subs...)
	var sids []uint64
	for _, batch := range [][]*subscription.Subscription{subs[:len(base)], subs[len(base):]} {
		for _, r := range d.AddBatch(batch) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			sids = append(sids, r.ID)
		}
	}
	// Race the snapshot against a rebalance pass of the skewed engine:
	// the snapshot must cut a consistent subscription image regardless of
	// which entries are mid-migration.
	var wg sync.WaitGroup
	wg.Add(1)
	moved := 0
	go func() {
		defer wg.Done()
		moved = eng.Rebalance().Moves
	}()
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if moved == 0 {
		t.Fatal("precondition: the pass moved no boundary, nothing raced the snapshot")
	}
	d.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean rebuild: the same subscriptions bulk-loaded into a fresh
	// engine of the same configuration, never rebalanced, never crashed —
	// in the dump's order, which is by id (the engine's ids are not arrival
	// order), because the boundary sample strides the batch by position.
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return sids[order[a]] < sids[order[b]] })
	dump := make([]*subscription.Subscription, len(subs))
	for k, i := range order {
		dump[k] = subs[i]
	}
	clean := mkEngine()
	defer clean.Close()
	if _, err := clean.InsertBatch(dump); err != nil {
		t.Fatal(err)
	}
	cleanStats := clean.Stats()

	st2, err := persist.Open(dir, schema, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec, err := st2.Durable("", mkEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	if rec.Len() != len(subs) {
		t.Fatalf("recovered Len = %d, want %d", rec.Len(), len(subs))
	}
	if got, want := fingerprint(rec), fingerprint(clean); got != want {
		t.Fatalf("recovered answers diverge from the clean rebuild:\n got %.120s…\nwant %.120s…", got, want)
	}
	recStats := rec.Stats()
	if recStats.SkewRatio != cleanStats.SkewRatio {
		t.Fatalf("recovered SkewRatio %.3f != clean rebuild %.3f (layout must come from the clean build, not the mid-flight one)",
			recStats.SkewRatio, cleanStats.SkewRatio)
	}
	if recStats.Rebalances != 0 || recStats.BoundaryMoves != 0 || recStats.MigratedEntries != 0 {
		t.Fatalf("recovered engine carries rebalance history: %+v", recStats)
	}
	if recStats.Rebalances != cleanStats.Rebalances || recStats.BoundaryMoves != cleanStats.BoundaryMoves {
		t.Fatalf("recovered rebalance counters diverge from clean rebuild: %+v vs %+v", recStats, cleanStats)
	}
	// Durable sids survive: every stored sid round-trips on the recovered
	// provider to the same rectangle it was assigned for.
	for i, sid := range sids {
		got, ok := rec.Subscription(sid)
		if !ok || !got.Equal(subs[i]) {
			t.Fatalf("sid %d does not round-trip after mid-rebalance snapshot recovery", sid)
		}
	}
}
